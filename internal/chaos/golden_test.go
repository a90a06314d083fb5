package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace_hashes.golden from this tree")

// goldenPath holds one line per seeded run: its name, trace hash and a
// run-size figure (last sequence number, or events and deliveries).
var goldenPath = filepath.Join("testdata", "trace_hashes.golden")

// goldenRun is one seeded run of the golden set.
type goldenRun struct {
	name string
	run  func() (string, error)
}

func chaosGolden(name string, cfg Config) goldenRun {
	return goldenRun{name, func() (string, error) {
		res, err := Run(cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%016x last=%d", res.TraceHash, res.LastSeq), nil
	}}
}

// goldenRuns is the seeded set every "no wire change" claim is checked
// against: the chaos seed matrix, the E21 classes × 20 seeds, the
// hierarchy and quorum fault classes × their matrix seeds, and every
// scenario class × 6 seeds across the sequential, parallel and bulk
// engine modes — 192 runs.
func goldenRuns() []goldenRun {
	var runs []goldenRun
	for i, cfg := range []Config{
		{}, {}, {}, {CrashPrimary: true}, {CrashPrimary: true, Faults: 8},
		{Replicas: 1, CrashPrimary: true}, {Sites: 4, ReceiversPerSite: 2},
		{Faults: 10, Duration: 25 * time.Second},
		{Quorum: 2, QuorumFault: quorumFaultNone, Duration: 45 * time.Second, SendEvery: time.Second},
		{Regions: 2, Sites: 4, ReceiversPerSite: 2},
	} {
		cfg.Seed = int64(i + 1)
		runs = append(runs, chaosGolden(fmt.Sprintf("matrix/seed%d", cfg.Seed), cfg))
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"legacy", Config{}},
		{"source-partition", Config{SourcePartition: true}},
		{"join-window", Config{JoinWindow: true}},
		{"overlapping", Config{Overlapping: true}},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := c.cfg
			cfg.Seed = seed
			runs = append(runs, chaosGolden(fmt.Sprintf("e21/%s/seed%d", c.name, seed), cfg))
		}
	}
	for _, kind := range hierFaultKinds {
		for seed := int64(1); seed <= 10; seed++ {
			runs = append(runs, chaosGolden(fmt.Sprintf("hierarchy/%s/seed%d", kind, seed), hierCfg(seed, kind)))
		}
	}
	for _, kind := range quorumFaultKinds {
		for seed := int64(1); seed <= 14; seed++ {
			runs = append(runs, chaosGolden(fmt.Sprintf("quorum/%s/seed%d", kind, seed),
				Config{Seed: seed, Quorum: 2, QuorumFault: kind}))
		}
	}
	for _, class := range ScenarioClasses() {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := ScenarioConfig{Class: class, Seed: seed, Parallel: seed > 3, Bulk: seed%2 == 0}
			runs = append(runs, goldenRun{fmt.Sprintf("scenario/%s/seed%d", class, seed), func() (string, error) {
				res, err := RunScenario(cfg)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%016x events=%d deliveries=%d", res.TraceHash, res.Events, res.Deliveries), nil
			}})
		}
	}
	return runs
}

// TestTraceHashesGolden recomputes every seeded trace hash of the golden
// set and requires each to match testdata/trace_hashes.golden byte for
// byte. A change that means to re-time the wire regenerates the file with
// `go test ./internal/chaos/ -run TestTraceHashesGolden -update` and says
// which classes moved.
func TestTraceHashesGolden(t *testing.T) {
	var b strings.Builder
	for _, r := range goldenRuns() {
		got, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", r.name, got)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden set has %d runs, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trace diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
