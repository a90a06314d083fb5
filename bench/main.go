// Command bench is the repository's end-to-end benchmark: the real LBRM
// protocol objects in one process over loopback UDP sockets (udp-steady,
// udp-lossy, udp-sharded-sat) and the full-protocol simulated fleet
// (sim-fleet), measured from outside — it touches no file of the system
// under test. bench/README.md defines every workload and metric.
//
//	go run ./bench -workload udp-steady -seed 1
//	go run ./bench -workload udp-lossy -seed 1 -trace 1 -trace-out spans.jsonl
//	go run ./bench -agree 5
//
// A run starts itself several times with -setup-only to time the set-up in
// fresh processes (setup_s).
//
// Output is one `name value unit n=<samples>` line per metric, `#` lines
// of commentary, and a last line of JSON for the benchmark driver. The
// exit code is non-zero when the correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Defaults: a 24 s window, 2 000 warm-up PDUs, 15 set-up children per run.
const (
	defaultSeconds = 24
	defaultWarmup  = 2000
	defaultSetups  = 15
)

func main() {
	workload := flag.String("workload", "", "udp-steady | udp-lossy | udp-sharded-sat | sim-fleet")
	seed := flag.Int64("seed", 1, "seeds the drop schedule, the payload bytes and the simulator")
	secs := flag.Float64("seconds", defaultSeconds, "measured window in seconds (a traced run measures 10/24 of it, twice)")
	trace := flag.Int("trace", 0, "1 adds the traced window and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced window's spans to this file as JSONL")
	agree := flag.Int("agree", 0, "run two interleaved sets of N runs per workload and compare them")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, tear it down and exit: what a run starts several times to measure setup_s")
	flag.Parse()

	if *agree > 0 {
		os.Exit(runAgree(os.Stdout, *agree, *secs))
	}
	o := runOpts{
		seed: *seed, seconds: *secs, warmup: defaultWarmup, setups: defaultSetups, setupOnly: *setupOnly,
		trace: *trace != 0, traceOut: *traceOut,
	}
	rep, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.setupOnly {
		return
	}
	if err := rep.print(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// run executes one workload and completes its report (a set-up child has
// none).
func run(workload string, o runOpts) (*report, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	var rep *report
	var err error
	if w, ok := udpWorkloads[workload]; ok {
		rep, err = runUDP(w, o)
	} else if workload == wlSim {
		rep, err = runSim(simFull, o)
	} else {
		return nil, fmt.Errorf("unknown -workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil || o.setupOnly {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

// finish derives harness.failed_share once the verdict is in.
func (r *report) finish() {
	if r.attempted == 0 {
		r.attempted = 1
		r.failed = 1
		r.problems = append(r.problems, "nothing was attempted")
	}
	r.add("harness.failed_share", float64(r.failed)/float64(r.attempted), r.attempted)
}

// print writes the metric lines and the driver's JSON line. The JSON
// carries exactly the metrics BENCHMARK.json lists for the mode: the
// end-to-end ones untraced, the per-layer ones traced. A per-layer metric
// this workload does not produce has no text line; in the JSON, where the
// driver wants every listed name on every run, it reads 0.
func (r *report) print(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s n=%d\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		m, _ := r.get(d.name)
		out.Metrics[d.name] = jsonMetric{m.value, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
