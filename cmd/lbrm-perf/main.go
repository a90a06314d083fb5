// Command lbrm-perf runs the hot-datapath micro-benchmarks (internal/perf)
// outside `go test` and writes the results as JSON, so the performance
// trajectory of the datapath is recorded in-repo across changes
// (BENCH_1.json for the pre-sharding datapath, BENCH_2.json for the
// batched/sharded one; later revisions append _3, ...).
//
// Usage:
//
//	lbrm-perf                      # writes BENCH_2.json
//	lbrm-perf -o -                 # prints JSON to stdout
//	lbrm-perf -sim                 # writes BENCH_4.json (sim-engine headline
//	                               # + adversarial scenario matrix)
//	lbrm-perf -gate                # regression gate against BENCH_2.json
//	                               # and BENCH_4.json
//	lbrm-perf -gate -baseline F    # gate against a specific baseline
//
// The gate re-measures the cheap invariants (zero steady-state
// allocations on the logging pipeline and the recovery episode) and the
// egress headline, failing if throughput drops below 80% of the committed
// baseline's udp_pps_per_core; it also validates the committed sim-engine
// speedup (BENCH_4.json, 5× floor at 10k sites) and re-measures the
// engine live on the 1k-site scenario (3× floor, exact trace equality).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"lbrm/internal/chaos"
	"lbrm/internal/obs"
	"lbrm/internal/perf"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// PPS is the achieved packets/second for benchmarks that report the
	// "pps" metric (the egress floods).
	PPS float64 `json:"pps,omitempty"`
}

type report struct {
	Date           string  `json:"date"`
	GoVersion      string  `json:"go_version"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	DatapathAllocs float64 `json:"datapath_allocs_per_op"`
	// DatapathAllocsObs is the same measurement with a live metrics sink
	// attached; the observability contract keeps it at zero too.
	DatapathAllocsObs float64 `json:"datapath_allocs_obs_per_op"`
	// RecoveryAllocs is the steady-state allocation count of one full
	// loss-recovery episode (gap → NACK → retransmit → deliver).
	RecoveryAllocs float64 `json:"recovery_allocs_per_op"`
	// UDPPpsPerCore is the batched-egress headline: datagrams/second one
	// core pushes through the real UDP stack (the UDPEgress flood).
	UDPPpsPerCore float64  `json:"udp_pps_per_core"`
	Benchmarks    []result `json:"benchmarks"`
}

func run() report {
	rep := report{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		// The allocation gates' exact measurements, not benchmark
		// estimates: average allocations per steady-state operation.
		DatapathAllocs:    perf.MeasureDatapathAllocs(5000, nil),
		DatapathAllocsObs: perf.MeasureDatapathAllocs(5000, obs.NewSink()),
		RecoveryAllocs:    perf.MeasureRecoveryAllocs(2000),
	}
	for _, bn := range perf.All() {
		fmt.Fprintf(os.Stderr, "running %s...\n", bn.Name)
		r := testing.Benchmark(bn.F)
		res := result{
			Name:        bn.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			PPS:         r.Extra["pps"],
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		if bn.Name == "UDPEgress" {
			rep.UDPPpsPerCore = res.PPS
		}
	}
	return rep
}

// simScenarioResult records one adversarial scenario class's protocol
// numbers for BENCH_4.json (all runs are virtual-time; wall_ms is the host
// cost of executing the scenario sequentially).
type simScenarioResult struct {
	Class         string  `json:"class"`
	Seed          int64   `json:"seed"`
	TraceHash     string  `json:"trace_hash"`
	Events        uint64  `json:"events"`
	Deliveries    uint64  `json:"deliveries"`
	Receivers     int     `json:"receivers"`
	Joiners       int     `json:"joiners,omitempty"`
	Recovered     uint64  `json:"recovered"`
	NacksSent     uint64  `json:"nacks_sent"`
	BackfillP50MS float64 `json:"backfill_p50_ms,omitempty"`
	BackfillP99MS float64 `json:"backfill_p99_ms,omitempty"`
	WallMS        float64 `json:"wall_ms"`
}

// simReport is the BENCH_4.json schema: the simulation-engine headline
// (logical events per wall second on the ROADMAP's 10k-site scenario,
// scale-out engine vs the pre-scale-out baseline) plus per-scenario
// protocol numbers from the adversarial matrix.
type simReport struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// The 10k-site scenario shape the headline was measured on.
	Islands          int     `json:"islands"`
	Sites            int     `json:"sites"`
	ReceiversPerSite int     `json:"receivers_per_site"`
	VirtualSeconds   float64 `json:"virtual_seconds"`
	// SimEventsPerSec is the headline: the scale-out engine (timer wheel +
	// bulk delivery + parallel islands) on the 10k-site scenario.
	SimEventsPerSec float64 `json:"sim_events_per_sec"`
	// BaselineEventsPerSec is the pre-scale-out engine (heap scheduler,
	// per-member delivery, sequential) on the identical scenario.
	BaselineEventsPerSec float64 `json:"baseline_events_per_sec"`
	Speedup              float64 `json:"speedup"`
	Events               uint64  `json:"events"`
	Deliveries           uint64  `json:"deliveries"`
	// TraceHashMatch is measured on a separate trace-enabled pair of runs
	// (tracing off for the headline): both engines must execute the
	// byte-identical packet trace.
	TraceHash      string              `json:"trace_hash"`
	TraceHashMatch bool                `json:"trace_hash_match"`
	Scenarios      []simScenarioResult `json:"scenarios"`
}

// runSim measures the engine headline and the scenario matrix.
func runSim() (simReport, error) {
	opts := perf.Scenario10k()
	rep := simReport{
		Date:             time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		Islands:          opts.Islands,
		Sites:            opts.Sites,
		ReceiversPerSite: opts.ReceiversPerSite,
		VirtualSeconds:   opts.Duration.Seconds(),
	}

	fmt.Fprintln(os.Stderr, "sim: 10k-site headline (scale-out engine)...")
	scaled, err := perf.MeasureSimEngine(opts, false)
	if err != nil {
		return rep, err
	}
	fmt.Fprintln(os.Stderr, "sim: 10k-site headline (baseline engine)...")
	base, err := perf.MeasureSimEngine(opts, true)
	if err != nil {
		return rep, err
	}
	rep.SimEventsPerSec = scaled.EventsPerSec
	rep.BaselineEventsPerSec = base.EventsPerSec
	rep.Speedup = scaled.EventsPerSec / base.EventsPerSec
	rep.Events = scaled.Events
	rep.Deliveries = scaled.Deliveries

	// Trace equality is checked on its own pair of runs: the headline runs
	// without tracing, and an untraced hash compares nothing.
	fmt.Fprintln(os.Stderr, "sim: 10k-site trace-equality pair...")
	opts.Trace = true
	tScaled, err := perf.MeasureSimEngine(opts, false)
	if err != nil {
		return rep, err
	}
	tBase, err := perf.MeasureSimEngine(opts, true)
	if err != nil {
		return rep, err
	}
	rep.TraceHash = fmt.Sprintf("%016x", tScaled.TraceHash)
	rep.TraceHashMatch = tScaled.TraceHash == tBase.TraceHash &&
		tScaled.Events == tBase.Events && tScaled.Deliveries > 0

	for _, class := range chaos.ScenarioClasses() {
		fmt.Fprintf(os.Stderr, "sim: scenario %s...\n", class)
		seed := int64(100 + len(class)) // the scenario matrix test's pinning
		res, err := chaos.RunScenario(chaos.ScenarioConfig{Class: class, Seed: seed})
		if err != nil {
			return rep, fmt.Errorf("scenario %s: %v", class, err)
		}
		if !res.OK() {
			return rep, fmt.Errorf("scenario %s failed invariants:\n%s", class, res.Report())
		}
		rep.Scenarios = append(rep.Scenarios, simScenarioResult{
			Class:         string(class),
			Seed:          seed,
			TraceHash:     fmt.Sprintf("%016x", res.TraceHash),
			Events:        res.Events,
			Deliveries:    res.Deliveries,
			Receivers:     res.Receivers,
			Joiners:       res.Joiners,
			Recovered:     res.Recovered,
			NacksSent:     res.NacksSent,
			BackfillP50MS: float64(res.BackfillP50) / 1e6,
			BackfillP99MS: float64(res.BackfillP99) / 1e6,
			WallMS:        float64(res.Elapsed) / 1e6,
		})
	}
	return rep, nil
}

// simGate validates the committed sim-engine baseline and re-measures the
// engine live on the cheap 1k-site scenario: the committed 10k speedup
// must meet the 5× acceptance floor, the live speedup must stay above 3×
// (conservative against shared-machine noise; a real engine regression
// shows up as ~1×), and a live trace-enabled pair must agree exactly.
func simGate(baselinePath string) bool {
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perf gate FAIL: "+format+"\n", args...)
		ok = false
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf gate: no sim baseline (%v); skipping sim-engine check\n", err)
		return ok
	}
	var base simReport
	if err := json.Unmarshal(buf, &base); err != nil {
		fail("sim baseline %s unreadable: %v", baselinePath, err)
		return ok
	}
	if base.Speedup < 5 {
		fail("committed %s speedup %.2f < 5x acceptance floor", baselinePath, base.Speedup)
	}
	if !base.TraceHashMatch {
		fail("committed %s records trace-hash mismatch between engines", baselinePath)
	}

	live, err := perf.MeasureSimEngineQuick()
	if err != nil {
		fail("live sim measurement: %v", err)
		return ok
	}
	if live.Speedup < 3 {
		fail("live 1k-site sim speedup %.2f < 3x floor (committed 10k baseline %.2f)", live.Speedup, base.Speedup)
	} else {
		fmt.Fprintf(os.Stderr, "perf gate: sim engine %.2fx live at 1k sites (committed %.2fx at 10k)\n", live.Speedup, base.Speedup)
	}
	if !live.TraceHashMatch {
		fail("live trace-enabled engines diverged: scale-out hash != baseline hash")
	}
	return ok
}

// gate re-measures the datapath invariants against a committed baseline
// report and returns false on regression.
func gate(baselinePath string) bool {
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perf gate FAIL: "+format+"\n", args...)
		ok = false
	}
	if a := perf.MeasureDatapathAllocs(2000, nil); a != 0 {
		fail("datapath allocates %.2f allocs/op, want 0", a)
	}
	if a := perf.MeasureDatapathAllocs(2000, obs.NewSink()); a != 0 {
		fail("instrumented datapath allocates %.2f allocs/op, want 0", a)
	}
	if a := perf.MeasureSenderAllocs(2000, nil, true); a != 0 {
		fail("sender Send+SourceAck allocates %.2f allocs/op, want 0", a)
	}
	if a := perf.MeasureRecoveryAllocs(1000); a != 0 {
		fail("recovery episode allocates %.2f allocs/op, want 0", a)
	}
	for _, tc := range []struct {
		name     string
		fallback bool
	}{{"batched", false}, {"fallback", true}} {
		if a := perf.MeasureUDPLoopbackAllocs(500, tc.fallback); a > 0 {
			fail("%s loopback round-trip allocates %.2f allocs/op, want 0", tc.name, a)
		}
	}

	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf gate: no baseline (%v); skipping throughput check\n", err)
		return ok
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		fail("baseline %s unreadable: %v", baselinePath, err)
		return ok
	}
	if base.UDPPpsPerCore <= 0 {
		fmt.Fprintln(os.Stderr, "perf gate: baseline has no udp_pps_per_core; skipping throughput check")
		return ok
	}
	r := testing.Benchmark(perf.UDPEgress)
	pps := r.Extra["pps"]
	if pps == 0 {
		fmt.Fprintln(os.Stderr, "perf gate: UDP unavailable; skipping throughput check")
		return ok
	}
	// 0.8× absorbs scheduler noise on shared machines while still
	// catching a real datapath regression (which shows up as 2×+).
	if floor := 0.8 * base.UDPPpsPerCore; pps < floor {
		fail("UDPEgress %.0f pps < %.0f (80%% of baseline %.0f)", pps, floor, base.UDPPpsPerCore)
	} else {
		fmt.Fprintf(os.Stderr, "perf gate: UDPEgress %.0f pps (baseline %.0f)\n", pps, base.UDPPpsPerCore)
	}
	return ok
}

func main() {
	out := flag.String("o", "", "output file, or - for stdout (default BENCH_2.json; BENCH_4.json with -sim)")
	gateMode := flag.Bool("gate", false, "regression-gate mode: check invariants against -baseline and -sim-baseline and exit")
	baseline := flag.String("baseline", "BENCH_2.json", "datapath baseline report for -gate")
	simMode := flag.Bool("sim", false, "measure the simulation engine (10k-site headline + scenario matrix) instead of the datapath suite")
	simBaseline := flag.String("sim-baseline", "BENCH_4.json", "sim-engine baseline report for -gate")
	flag.Parse()

	if *gateMode {
		ok := gate(*baseline)
		ok = simGate(*simBaseline) && ok
		if !ok {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perf gate: ok")
		return
	}

	var rep any
	if *simMode {
		if *out == "" {
			*out = "BENCH_4.json"
		}
		sr, err := runSim()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbrm-perf:", err)
			os.Exit(1)
		}
		rep = sr
	} else {
		if *out == "" {
			*out = "BENCH_2.json"
		}
		rep = run()
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbrm-perf:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "lbrm-perf:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
