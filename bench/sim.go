package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"lbrm/internal/chaos"
	"lbrm/internal/perf"
)

// simVirtualPerSecond converts the requested window into simulated time,
// so that -seconds 24 is the issue's scenario (60 s of virtual time). It
// is a fixed amount of work, not a fixed time: on the calibration box the
// 800-receiver fleet took 24 s of wall time for it on one day and 10 s on
// another.
const simVirtualPerSecond = 2.5

// simScale sizes the sim-fleet topology (the smoke test shrinks it).
type simScale struct{ islands, sitesPerIsland, receiversPerSite int }

var simFull = simScale{islands: 4, sitesPerIsland: 50, receiversPerSite: 4}

func (sc simScale) config(seed int64, virtual time.Duration, parallel bool) chaos.ScenarioConfig {
	return chaos.ScenarioConfig{
		Class: chaos.ScenarioBroadcast, Seed: seed,
		Islands: sc.islands, SitesPerIsland: sc.sitesPerIsland, ReceiversPerSite: sc.receiversPerSite,
		Duration: virtual, Interval: 10 * time.Millisecond, Payload: 256,
		Bulk: true, Parallel: parallel,
	}
}

const (
	// simWarmupVirtual is the length of a set-up run: long enough to build
	// the whole fleet and push traffic through every receiver. It is too
	// short to converge (the scenario stops data at 70 % and recovers in the
	// tail), so a set-up run's invariants are not judged.
	simWarmupVirtual = 2 * time.Second
	// simWarmupSeed seeds every set-up run, whatever -seed is: in two
	// virtual seconds a handful of backbone drops decide how much recovery
	// the fleet does, and set-up time followed the seed by ±50 %.
	simWarmupSeed = 1
	// simMinVirtual is the shortest measured scenario: below it the tail
	// is shorter than the fleet's recovery horizon and the run would fail
	// its own convergence invariant whatever the code under test does.
	simMinVirtual = 20 * time.Second
)

// runSim runs the full-protocol fleet on netsim/vtime. No sockets, no
// kernel: protocol handlers, the timer wheel and the flooding simulator
// own all of the CPU. The measured window is one RunScenario call, process
// cost taken around it.
func runSim(sc simScale, o runOpts) (*report, error) {
	rep := &report{workload: wlSim}
	rep.notes = append(rep.notes, "virtual time on netsim: no sockets, no kernel network path")
	secs := o.seconds
	if o.trace {
		secs *= tracedShare
	}
	virtual := max(seconds(secs*simVirtualPerSecond), simMinVirtual)

	// The set-up: a short run of the same fleet (build it, page in the
	// code, grow the heap), once here before the window and, timed, in the
	// set-up children.
	setUp := func() (time.Duration, error) {
		start := time.Now()
		if _, err := chaos.RunScenario(sc.config(simWarmupSeed, simWarmupVirtual, false)); err != nil {
			return 0, fmt.Errorf("sim set-up: %w", err)
		}
		return time.Since(start), nil
	}
	if o.setupOnly {
		_, err := setUp()
		return nil, err
	}
	var setups []float64
	if o.setups > 0 {
		var err error
		if setups, err = childSetups(wlSim, o); err != nil {
			return nil, err
		}
	}
	own, err := setUp()
	if err != nil {
		return nil, err
	}
	if setups == nil {
		setups = []float64{own.Seconds()}
	}
	runtime.GC() // the window starts from a collected heap

	p0 := sampleProc()
	res, err := chaos.RunScenario(sc.config(o.seed, virtual, false))
	p1 := sampleProc()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if res.Deliveries == 0 {
		return nil, errors.New("sim: no deliveries")
	}
	// One slice: the fleet is built, driven and judged inside RunScenario,
	// so its progress cannot be read mid-run. The rate is over the engine's
	// own Elapsed (the drive alone), the CPU over the whole call.
	d := p0.until(p1)
	points := []progress{{}, {at: res.Elapsed, cpu: d.cpu, mallocs: d.mallocs, deliveries: res.Deliveries}}
	if err := rep.addProcess(setups, d, points); err != nil {
		return nil, err
	}
	// Every receiver owes every seq of the stream; a violated invariant
	// (convergence, retention, timer leak) fails the run as a whole.
	rep.attempted = uint64(res.Receivers) * res.LastSeq[0]
	if !res.OK() {
		rep.failed = uint64(len(res.Violations))
		rep.problems = append(rep.problems, res.Report())
	}
	rep.notes = append(rep.notes, fmt.Sprintf("sequential: %d events, %d deliveries, trace %016x, %v wall",
		res.Events, res.Deliveries, res.TraceHash, res.Elapsed.Round(time.Millisecond)))
	if !o.trace {
		return rep, nil
	}

	rep.add("netsim.events_per_delivery", float64(res.Events)/float64(res.Deliveries), res.Deliveries)
	rep.add("sim.recovered", float64(res.Recovered), res.Recovered)
	rep.add("sim.nacks_sent", float64(res.NacksSent), res.NacksSent)
	if res.Recovered > 0 {
		rep.add("sim.backfill_p50_ms", float64(res.BackfillP50)/1e6, res.Recovered)
		rep.add("sim.backfill_p99_ms", float64(res.BackfillP99)/1e6, res.Recovered)
	}

	// The same scenario with one goroutine per island: the wall-clock
	// ratio is the parallel speed-up, and the trace must not change.
	par, err := chaos.RunScenario(sc.config(o.seed, virtual, true))
	if err != nil {
		return nil, fmt.Errorf("sim parallel: %w", err)
	}
	equal := 0.0
	if par.TraceHash == res.TraceHash && par.Events == res.Events {
		equal = 1
	} else {
		rep.problems = append(rep.problems, fmt.Sprintf("parallel run diverged: trace %016x vs %016x", par.TraceHash, res.TraceHash))
	}
	rep.add("netsim.parallel_speedup", res.Elapsed.Seconds()/par.Elapsed.Seconds(), 1)
	rep.add("sim.trace_hash_equal", equal, 1)

	// The engine alone: trivial handlers on a 1 000-site broadcast. What
	// the fleet's wall time exceeds the bare engine's for the same number
	// of events is the protocol's share.
	engine, err := perf.MeasureSimEngine(perf.SimScenarioOpts{
		Islands: 4, Sites: 1000, ReceiversPerSite: 1,
		Duration: 2 * time.Second, Interval: 20 * time.Millisecond,
	}, false)
	if err != nil {
		return nil, fmt.Errorf("sim engine: %w", err)
	}
	rep.add("netsim.engine_events_per_s", engine.EventsPerSec, engine.Events)
	rep.add("sim.protocol_share", 1-float64(res.Events)/engine.EventsPerSec/res.Elapsed.Seconds(), res.Events)
	return rep, nil
}
