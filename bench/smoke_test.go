package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json; decoding rejects any other key.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesTheTable: BENCHMARK.json repeats metricDefs for
// the driver — same names in the same order, same units, directions and
// bounds, and the gated metrics are the ones every workload produces.
func TestBenchmarkFileMatchesTheTable(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	higher := func(name, better string) bool {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
		return better == "higher"
	}
	var file []metricDef
	for _, m := range bf.EndToEnd {
		file = append(file, metricDef{name: m.Name, unit: m.Unit, higher: higher(m.Name, m.Better), bound: m.Bound, gated: true})
	}
	for _, m := range bf.PerLayer {
		file = append(file, metricDef{name: m.Name, unit: m.Unit, higher: higher(m.Name, m.Better)})
	}
	if len(file) != len(metricDefs) {
		t.Fatalf("%d metrics in the file, %d in the table", len(file), len(metricDefs))
	}
	for i, d := range metricDefs {
		want := metricDef{name: d.name, unit: d.unit, higher: d.higher, gated: d.gated}
		if d.gated {
			want.bound = d.bound
			if len(d.on) != len(workloadNames) {
				t.Errorf("%s is gated but not produced by every workload", d.name)
			}
		}
		if got := file[i]; got.name != want.name || got.unit != want.unit || got.higher != want.higher || got.gated != want.gated || got.bound != want.bound {
			t.Errorf("metric %d: the file has %+v, the table %+v", i, got, want)
		}
	}
}

// TestSetUpHasNoFixedSleep: with nothing to warm up, set-up is binding
// sockets and starting handlers — well under 200 ms.
func TestSetUpHasNoFixedSleep(t *testing.T) {
	for _, name := range []string{wlSteady, wlSat} {
		s, took, err := setUp(udpWorkloads[name], stackOpts{seed: 1, window: time.Second})
		if err != nil {
			t.Skipf("udp unavailable: %v", err)
		}
		s.close()
		if took >= 200*time.Millisecond {
			t.Errorf("%s: set-up with 0 warm-up PDUs took %v", name, took)
		}
	}
}

// TestSetupOnly: a set-up child sets the workload up, tears it down and
// has nothing to report.
func TestSetupOnly(t *testing.T) {
	for _, workload := range []string{wlSteady, wlSim} {
		rep, err := run(workload, runOpts{seed: 1, seconds: 1, warmup: 200, setupOnly: true})
		if err != nil || rep != nil {
			t.Errorf("%s: report %v, error %v", workload, rep, err)
		}
	}
}

// TestSmoke runs every workload traced with a 300 ms window (and a
// scaled-down fleet) and holds the output to the contract: only metrics
// the workload produces, under their defined units; every metric of
// BENCHMARK.json printed by some workload; a correct run; a JSON line
// with exactly the listed names. So that 600 PDUs exercise every recovery
// metric, the loss workloads' lanes are denser here than in a real run.
func TestSmoke(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "20ms"); err != nil { // the yardstick micro-benchmarks: presence, not precision
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	o := runOpts{seed: 1, seconds: 0.3 / tracedShare, warmup: 200, trace: true, traceOut: t.TempDir() + "/spans.jsonl"}
	printed := map[string]bool{}
	for _, workload := range workloadNames {
		var rep *report
		var err error
		if raceEnabled && udpWorkloads[workload].perFrame > 0 {
			continue // an open loop's rate is not the race detector's to sustain; the closed loop paces itself
		}
		if w, ok := udpWorkloads[workload]; ok {
			if w.single != nil {
				w.single = lanePtr(laneFor(laneSingle, 0.08, 2, 6))
			}
			if w.site != nil {
				w.site = lanePtr(laneFor(laneSite, 0.05, 2, 6))
			}
			rep, err = runUDP(w, o)
		} else {
			rep, err = runSim(simScale{islands: 2, sitesPerIsland: 2, receiversPerSite: 2}, o)
		}
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		rep.finish()
		if len(rep.problems) > 0 || rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", workload, rep.attempted, rep.failed, rep.problems)
		}
		for _, m := range rep.metrics {
			d, ok := findDef(m.name)
			switch {
			case !ok:
				t.Errorf("%s printed an undefined metric %s", workload, m.name)
			case !d.producedBy(workload):
				t.Errorf("%s printed %s, which it does not produce", workload, m.name)
			case d.unit != m.unit:
				t.Errorf("%s: %s printed in %s, defined in %s", workload, m.name, m.unit, d.unit)
			}
			if printed[workload+" "+m.name] {
				t.Errorf("%s printed %s twice", workload, m.name)
			}
			printed[workload+" "+m.name], printed[m.name] = true, true
		}
		for _, d := range endToEndDefs {
			if m, ok := rep.get(d.name); !ok || m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (printed %v), must be positive", workload, d.name, m.value, ok)
			}
		}

		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			if err := rep.print(&buf, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct           *bool
				Attempted, Failed *uint64
				Metrics           map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", workload, err)
			}
			if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted == 0 || last.Failed == nil {
				t.Errorf("%s: result line %s", workload, lines[len(lines)-1])
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", workload, traced, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value == nil {
					t.Errorf("%s traced=%v: result line lacks %s in %s", workload, traced, d.name, d.unit)
				}
			}
		}
	}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if raceEnabled {
				break
			}
			if !printed[d.name] {
				t.Errorf("no workload printed %s", d.name)
			}
			for _, w := range d.on {
				// Sample-based metrics may lack samples in 300 ms; the
				// process metrics and the layer self times may not.
				if !printed[w+" "+d.name] && (len(d.on) == len(workloadNames) || strings.Contains(d.name, "self_ns")) {
					t.Errorf("%s did not print %s", w, d.name)
				}
			}
		}
	}
	if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
		t.Errorf("no spans written to -trace-out: %v", err)
	}
}
