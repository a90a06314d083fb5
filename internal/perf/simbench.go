package perf

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"lbrm/internal/netsim"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// Simulation-engine benchmark: the ROADMAP's 10k-site broadcast scenario
// run through the discrete-event engine itself, with trivial protocol
// handlers so the measurement isolates the simulator (timer wheel, bulk
// delivery, windowed parallel islands) from LBRM protocol work.
//
// The headline metric is logical events per second of wall-clock time.
// Logical events (netsim.Network.LogicalEvents) count the workload — one
// per datagram delivery plus every non-delivery clock event — and are
// engine-independent: the heap and wheel schedulers, bulk and per-member
// delivery, sequential and parallel execution all execute the identical
// trace and report the identical count. The events/sec ratio between two
// engines is therefore a pure wall-clock speedup, uninflated by one
// engine simply scheduling more events than the other.

// SimScenarioOpts sizes one engine benchmark scenario.
type SimScenarioOpts struct {
	// Islands is the receiver island count; island 0 is the source's.
	Islands int
	// Sites is the total receiver site count, spread round-robin.
	Sites int
	// ReceiversPerSite is the population behind each site router.
	ReceiversPerSite int
	// Duration is the simulated time driven; Interval the multicast gap.
	Duration, Interval time.Duration
	// Trace enables the FNV trace hash. The headline measurement runs
	// without it (tracing is a diagnostic, not part of the engine);
	// TestSimEngineTraceEquality pins hash equality separately.
	Trace bool
}

// Scenario10k is the ROADMAP north-star scale: 10,000 receiver sites.
func Scenario10k() SimScenarioOpts {
	return SimScenarioOpts{
		Islands:          8,
		Sites:            10_000,
		ReceiversPerSite: 1,
		Duration:         2 * time.Second,
		Interval:         20 * time.Millisecond,
	}
}

// scenario1k is the cheap configuration for the registry benchmarks and
// the perf gate's live re-measurement.
func scenario1k() SimScenarioOpts {
	return SimScenarioOpts{
		Islands:          4,
		Sites:            1_000,
		ReceiversPerSite: 1,
		Duration:         2 * time.Second,
		Interval:         20 * time.Millisecond,
	}
}

// SimEngineRun is one measured scenario execution.
type SimEngineRun struct {
	// EventsPerSec is the headline: logical events / wall seconds.
	EventsPerSec float64
	// Events and Deliveries describe the executed workload; both are
	// identical across engines for the same opts.
	Events     uint64
	Deliveries uint64
	// TraceHash fingerprints the full packet trace; identical across
	// engines for the same opts.
	TraceHash uint64
	// Wall is the host time the run took.
	Wall time.Duration
}

const simBenchGroup = wire.GroupID(1)

// simTicker multicasts one fixed payload per interval until stopped.
type simTicker struct {
	interval time.Duration
	until    time.Time
	payload  []byte
}

func (s *simTicker) Start(env transport.Env) {
	var tick func()
	tick = func() {
		if env.Now().After(s.until) {
			return
		}
		if err := env.Multicast(simBenchGroup, transport.TTLGlobal, s.payload); err != nil {
			panic(err)
		}
		env.AfterFunc(s.interval, tick)
	}
	env.AfterFunc(s.interval, tick)
}

func (s *simTicker) Recv(transport.Addr, []byte) {}

// simCounter joins the group and counts deliveries.
type simCounter struct{ got uint64 }

func (c *simCounter) Start(env transport.Env) {
	if err := env.Join(simBenchGroup); err != nil {
		panic(err)
	}
}

func (c *simCounter) Recv(transport.Addr, []byte) { c.got++ }

// buildSimFleet assembles the broadcast fleet on a fresh cluster.
func buildSimFleet(opts SimScenarioOpts, epoch time.Time) (*netsim.Cluster, error) {
	perIsland := (opts.Sites + opts.Islands - 1) / opts.Islands
	stride := perIsland*opts.ReceiversPerSite + 4
	c := netsim.NewCluster(1, stride)
	cross := netsim.LinkConfig{Delay: 8 * time.Millisecond, TTLRequired: netsim.RegionBoundaryTTL}
	for k := 0; k <= opts.Islands; k++ {
		if _, err := c.AddIsland(cross, cross); err != nil {
			return nil, err
		}
	}
	src := c.Island(0).Net.NewSite(netsim.SiteParams{Name: "source-site"})
	src.NewHost("source", &simTicker{
		interval: opts.Interval,
		until:    epoch.Add(opts.Duration - opts.Interval),
		payload:  make([]byte, 64),
	})
	for s := 0; s < opts.Sites; s++ {
		isl := c.Island(1 + s%opts.Islands)
		site := isl.Net.NewSite(netsim.SiteParams{Name: fmt.Sprintf("site%d", s)})
		for r := 0; r < opts.ReceiversPerSite; r++ {
			site.NewHost(fmt.Sprintf("site%d/rcv%d", s, r), &simCounter{})
		}
	}
	return c, nil
}

// MeasureSimEngine runs the scenario once and measures events/sec.
// baseline selects the pre-scale-out engine — container/heap scheduler,
// per-member delivery, sequential islands; otherwise the scenario runs on
// the timer wheel with bulk delivery and parallel islands.
func MeasureSimEngine(opts SimScenarioOpts, baseline bool) (SimEngineRun, error) {
	if baseline {
		vtime.UseHeapScheduler(true)
		defer vtime.UseHeapScheduler(false)
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c, err := buildSimFleet(opts, epoch)
	if err != nil {
		return SimEngineRun{}, err
	}
	c.EnableTraceHash(opts.Trace)
	c.SetBulkDelivery(!baseline)
	c.SetParallel(!baseline)
	if err := c.Start(); err != nil {
		return SimEngineRun{}, err
	}
	start := time.Now()
	if err := c.Run(opts.Duration); err != nil {
		return SimEngineRun{}, err
	}
	wall := time.Since(start)
	run := SimEngineRun{
		Events:     c.Events(),
		Deliveries: c.Deliveries(),
		TraceHash:  c.TraceHash(),
		Wall:       wall,
	}
	run.EventsPerSec = float64(run.Events) / wall.Seconds()
	return run, nil
}

// SimEngineQuick is the perf gate's live sim-engine health check.
type SimEngineQuick struct {
	// Speedup is scale-out vs baseline events/sec on the 1k-site scenario,
	// measured without tracing (as the headline is).
	Speedup float64
	// TraceHashMatch reports whether a trace-enabled pair of runs executed
	// the byte-identical packet trace.
	TraceHashMatch bool
}

// MeasureSimEngineQuick runs the cheap 1k-site scenario four times — an
// untraced pair for the speedup, a traced pair for the equality bit — so
// the perf gate can catch an engine regression without the 10k fleet.
func MeasureSimEngineQuick() (SimEngineQuick, error) {
	var q SimEngineQuick
	opts := scenario1k()
	scaled, err := MeasureSimEngine(opts, false)
	if err != nil {
		return q, err
	}
	base, err := MeasureSimEngine(opts, true)
	if err != nil {
		return q, err
	}
	q.Speedup = scaled.EventsPerSec / base.EventsPerSec
	opts.Trace = true
	tScaled, err := MeasureSimEngine(opts, false)
	if err != nil {
		return q, err
	}
	tBase, err := MeasureSimEngine(opts, true)
	if err != nil {
		return q, err
	}
	q.TraceHashMatch = tScaled.TraceHash == tBase.TraceHash &&
		tScaled.Events == tBase.Events && tScaled.Deliveries > 0
	return q, nil
}

// simEngineBench adapts one engine configuration to the bench registry.
func simEngineBench(baseline bool) func(*testing.B) {
	return func(b *testing.B) {
		opts := scenario1k()
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			run, err := MeasureSimEngine(opts, baseline)
			if err != nil {
				b.Fatal(err)
			}
			events += run.Events
		}
		b.StopTimer()
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
}

// SimEngine1k is the scale-out engine (wheel + bulk + parallel islands)
// on the 1k-site broadcast scenario.
var SimEngine1k = simEngineBench(false)

// SimEngine1kBaseline is the pre-scale-out engine (heap scheduler,
// per-member delivery, sequential) on the same scenario.
var SimEngine1kBaseline = simEngineBench(true)

// MeasureSimAllocs reports the steady-state mallocs of one simulator
// step, averaged over runs without rounding: a warmed two-island Cluster,
// driven through Node.Env() with trivial handlers, where each step
// multicasts one datagram (bulk-delivered to a site of its own island and
// carried across the backbone to a site of the other), unicasts one inside
// the island to a host whose down link duplicates every packet, unicasts
// one across the backbone, and runs the cluster until all of it has
// arrived. Post records, delivery and injection records, unicast buffers,
// path scratch and boxed addresses are all recycled (DESIGN.md §14); what
// a step still allocates is the one copy the engine makes of each
// multicast source packet, shared by every member and island it reaches.
func MeasureSimAllocs(runs int) float64 {
	c := netsim.NewCluster(1, 16)
	cross := netsim.LinkConfig{Delay: 8 * time.Millisecond}
	var nets [2]*netsim.Network
	for k := range nets {
		isl, err := c.AddIsland(cross, cross)
		if err != nil {
			panic(err)
		}
		nets[k] = isl.Net
	}
	home := nets[0].NewSite(netsim.SiteParams{Name: "home"})
	src := home.NewHost("src", &envGrab{})
	peer := home.NewHostLossy("peer", &envGrab{}, netsim.Duplicate{P: 1})
	local := nets[0].NewSite(netsim.SiteParams{Name: "local"})
	remote := nets[1].NewSite(netsim.SiteParams{Name: "remote"})
	for r := 0; r < 4; r++ {
		local.NewHost(fmt.Sprintf("local/rcv%d", r), &simCounter{})
		remote.NewHost(fmt.Sprintf("remote/rcv%d", r), &simCounter{})
	}
	far := remote.NewHost("far", &envGrab{})
	c.SetBulkDelivery(true)
	if err := c.Start(); err != nil {
		panic(err)
	}
	env := src.Env()
	peerAddr, farAddr := peer.Env().LocalAddr(), far.Env().LocalAddr()
	payload := make([]byte, 64)
	step := func() {
		if env.Multicast(simBenchGroup, transport.TTLGlobal, payload) != nil ||
			env.Send(peerAddr, payload) != nil || env.Send(farAddr, payload) != nil {
			panic("sim step: send failed")
		}
		if err := c.Run(100 * time.Millisecond); err != nil {
			panic(err)
		}
	}
	// Warm every free list and let the wheel's slots reach their
	// high-water marks before measuring: 45 000 steps are 4 500 s of
	// virtual time, one turn of the wheel's top level (2^26 ticks ≈ 4 398 s).
	// After 2 000 steps slots still grow by ~0.0075 mallocs per step.
	for i := 0; i < 45000; i++ {
		step()
	}
	// Count mallocs directly: testing.AllocsPerRun truncates the mean to
	// an integer, which would hide anything under one per step.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := c.Deliveries()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	// 4 local + 4 remote members, 2 copies at peer, 1 at far.
	if got, want := c.Deliveries()-before, uint64(runs)*11; got != want {
		panic(fmt.Sprintf("sim step: %d deliveries, want %d", got, want))
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}
