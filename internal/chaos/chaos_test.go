package chaos

import (
	"testing"
	"time"

	"lbrm/internal/obs"
)

// TestChaosDeterministic: the whole point of the harness — one seed must
// reproduce the identical fault schedule and the identical packet trace.
func TestChaosDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, CrashPrimary: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("schedules diverge at %d: %s vs %s", i, a.Schedule[i], b.Schedule[i])
		}
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hashes differ: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.LastSeq != b.LastSeq || len(a.Violations) != len(b.Violations) {
		t.Fatalf("verdicts differ:\n%s\nvs\n%s", a.Report(), b.Report())
	}
}

// TestChaosDifferentSeedsDiverge: a sanity check that the schedule actually
// depends on the seed (a constant schedule would make the matrix worthless).
func TestChaosDifferentSeedsDiverge(t *testing.T) {
	a := buildSchedule(Config{Seed: 1}.withDefaults())
	b := buildSchedule(Config{Seed: 2}.withDefaults())
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

// TestChaosPrimaryCrash: the hardest recovery path — primary dies mid-stream
// with full state loss, a replica is promoted within the failover bound, the
// old primary reboots as a cold replica, and the deployment converges.
func TestChaosPrimaryCrash(t *testing.T) {
	res, err := Run(Config{Seed: 7, CrashPrimary: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
	if res.Failovers == 0 {
		t.Fatalf("primary crashed but sender never failed over:\n%s", res.Report())
	}
	if res.FailoverLatency <= 0 {
		t.Fatalf("no failover latency recorded:\n%s", res.Report())
	}
	if res.Promotions == 0 {
		t.Fatalf("no replica was promoted:\n%s", res.Report())
	}
}

// TestChaosPartitionsOnly and TestChaosLinkChaosOnly exercise single fault
// classes so a matrix failure can be bisected by class.
func TestChaosPartitionsOnly(t *testing.T) {
	res, err := Run(Config{Seed: 11, DisableCrashes: true, DisableLinkChaos: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
}

func TestChaosLinkChaosOnly(t *testing.T) {
	res, err := Run(Config{Seed: 12, DisableCrashes: true, DisablePartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
}

// TestChaosSourcePartition: the §2.2.3 split-brain scenario — the acting
// primary is isolated (deaf, mute, or both) with all state intact, the
// sender fails over and mints a new epoch, the partition heals, and the
// stale primary must be fenced everywhere until a heartbeat demotes it.
func TestChaosSourcePartition(t *testing.T) {
	for _, seed := range []int64{2, 5, 7, 8} {
		res, err := Run(Config{Seed: seed, SourcePartition: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Errorf("seed %d failed:\n%s", seed, res.Report())
			continue
		}
		if res.Failovers == 0 {
			t.Errorf("seed %d: primary was partitioned but sender never failed over:\n%s",
				seed, res.Report())
		}
		if res.PrimaryEpoch < 2 {
			t.Errorf("seed %d: failover happened but no new epoch was minted (epoch %d)",
				seed, res.PrimaryEpoch)
		}
	}
}

// TestChaosJoinWindow: every random fault lands in the first tenth of the
// run, while receivers and loggers are still establishing first contact.
func TestChaosJoinWindow(t *testing.T) {
	res, err := Run(Config{Seed: 31, JoinWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
	for _, f := range res.Schedule {
		if f.At >= 2*time.Second { // Duration/10 of the 20s default
			t.Fatalf("join-window fault scheduled too late: %s", f)
		}
	}
}

// TestChaosOverlapping: a flaky-link window and a partition window overlap
// on one site's tail circuit; the stacked loss overlays must apply and heal
// independently.
func TestChaosOverlapping(t *testing.T) {
	res, err := Run(Config{Seed: 41, Overlapping: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
}

// TestChaosUnfencedPrimaryTrips proves the un-fenced-primary invariant has
// teeth: with epoch fencing reverted (UnsafeNoFence), the deaf partitioned
// primary misses the redirect multicast, keeps acting past the heal grace,
// and the monitor must catch the split brain that fencing normally
// prevents. The same seed with fencing on is clean.
func TestChaosUnfencedPrimaryTrips(t *testing.T) {
	// Seed 7 draws the "deaf" isolation mode: the stale primary can still
	// send but hears nothing, so without epochs nothing ever demotes it.
	fenced, err := Run(Config{Seed: 7, SourcePartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fenced.OK() {
		t.Fatalf("fenced run should be clean:\n%s", fenced.Report())
	}
	unfenced, err := Run(Config{Seed: 7, SourcePartition: true, disableFencing: true})
	if err != nil {
		t.Fatal(err)
	}
	tripped := false
	for _, v := range unfenced.Violations {
		if v.Name == "unfenced-primary" {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("fencing disabled but the un-fenced-primary invariant did not trip:\n%s",
			unfenced.Report())
	}
}

// TestChaosRecoveryBandwidthAccounted: the tail-circuit traffic report is
// populated and the NACK class is non-empty under link chaos — the budget
// identity itself is enforced inside every run as the nack-budget
// invariant.
func TestChaosRecoveryBandwidthAccounted(t *testing.T) {
	res, err := Run(Config{Seed: 12, DisableCrashes: true, DisablePartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
	if res.TailTraffic["data"].Packets == 0 || res.TailTraffic["heartbeat"].Packets == 0 {
		t.Fatalf("tail traffic accounting empty:\n%s", res.Report())
	}
	if res.TailTraffic["nack"].Packets == 0 || res.TailTraffic["retrans"].Packets == 0 {
		t.Fatalf("link chaos ran but no recovery traffic was classified:\n%s", res.Report())
	}
	if res.TailTrafficFault["data"].Packets >= res.TailTraffic["data"].Packets {
		t.Fatalf("fault-window traffic should be a strict subset:\n%s", res.Report())
	}
}

// TestChaosMatrix is the fixed seed matrix behind `make chaos`: every seed
// must satisfy every invariant; a failure prints the seed and the schedule
// (the Report embeds both), which is all that is needed to reproduce it.
func TestChaosMatrix(t *testing.T) {
	type entry struct {
		seed int64
		cfg  Config
	}
	matrix := []entry{
		{1, Config{}},
		{2, Config{}},
		{3, Config{}},
		{4, Config{CrashPrimary: true}},
		{5, Config{CrashPrimary: true, Faults: 8}},
		{6, Config{Replicas: 1, CrashPrimary: true}},
		{7, Config{Sites: 4, ReceiversPerSite: 2}},
		{8, Config{Faults: 10, Duration: 25 * time.Second}},
		// Seed 9 pins the low-rate quorum liveness fix (see
		// TestChaosQuorumLowRateNoFalseStalls): a fault-free quorum run at
		// the CLI's default send rate — slower than every protocol timeout —
		// must hold all invariants in the race-detected seed matrix.
		{9, Config{Quorum: 2, QuorumFault: quorumFaultNone,
			Duration: 45 * time.Second, SendEvery: time.Second}},
		// Seed 10 keeps one three-tier hierarchy run in the headline matrix
		// (the full class × seed sweep lives in TestChaosHierarchyMatrix).
		{10, Config{Regions: 2, Sites: 4, ReceiversPerSite: 2}},
	}
	for _, e := range matrix {
		e := e
		e.cfg.Seed = e.seed
		res, err := Run(e.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", e.seed, err)
		}
		if !res.OK() {
			t.Errorf("seed %d failed:\n%s", e.seed, res.Report())
		} else {
			t.Logf("seed %d: lastSeq=%d failovers=%d converged in %v",
				e.seed, res.LastSeq, res.Failovers, res.ConvergeTook)
		}
	}
}

// TestChaosMetricsCrossCheck drives one seed through every schedule class
// and requires the observability ledgers to reconcile: every run already
// enforces the metrics-reconcile, nack-budget and epoch-gauge invariants
// in its checkers (component metrics vs independent wire-tap counts,
// across crash/restart incarnations); this test
// additionally asserts the merged fleet snapshot is populated — a silently
// empty registry would reconcile trivially.
func TestChaosMetricsCrossCheck(t *testing.T) {
	classes := []struct {
		name     string
		cfg      Config
		wantNack bool // schedule guarantees loss, so NACK metrics must flow
	}{
		{"legacy", Config{Seed: 3}, false},
		{"crash-primary", Config{Seed: 4, CrashPrimary: true}, false},
		{"source-partition", Config{Seed: 7, SourcePartition: true}, false},
		{"join-window", Config{Seed: 31, JoinWindow: true}, false},
		{"overlapping", Config{Seed: 41, Overlapping: true}, true},
	}
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("invariants violated:\n%s", res.Report())
			}
			m := res.Metrics
			// The datapath actually flowed through the instrumented
			// components: data out of the sender, into receivers, logged
			// by the loggers.
			want := []string{
				"sender.tx.data.pkts", "sender.data_sent", "sender.heartbeats",
				"recv.delivered", "primary.logged", "secondary.logged",
			}
			if c.wantNack {
				want = append(want, "recv.tx.nack.pkts")
			}
			for _, name := range want {
				if m.Counters[name] == 0 {
					t.Errorf("merged metric %q is zero:\n%s", name, res.Report())
				}
			}
			// The fleet's epoch gauges agree with the protocol's verdict
			// (gauges max-merge, and the sender holds the newest epoch).
			if g := m.Gauges["sender.primary_epoch"]; g != int64(res.PrimaryEpoch) {
				t.Errorf("merged sender.primary_epoch %d != PrimaryEpoch %d", g, res.PrimaryEpoch)
			}
			if c.cfg.CrashPrimary {
				if m.Counters["sender.failovers"] == 0 || m.Counters["primary.promotions"] == 0 {
					t.Errorf("crash-primary run recorded no failover/promotion metrics:\n%s", res.Report())
				}
				var start, done bool
				for _, ev := range res.SenderTrace {
					start = start || ev.Kind == obs.KindFailoverStart
					done = done || ev.Kind == obs.KindFailoverDone
				}
				if !start || !done {
					t.Errorf("sender trace missing failover transitions (start=%v done=%v)", start, done)
				}
			}
		})
	}
}

// TestChaosSeedMatrixE21 is the experiment-E21 matrix: 20 seeds through
// each schedule class — the legacy random mix plus the three robustness
// classes (source-segment partition, join-window, overlapping) — with
// every invariant (including un-fenced-single-primary, epoch monotonicity
// and the NACK budget) required to hold on all of them.
func TestChaosSeedMatrixE21(t *testing.T) {
	classes := []struct {
		name string
		cfg  Config
	}{
		{"legacy", Config{}},
		{"source-partition", Config{SourcePartition: true}},
		{"join-window", Config{JoinWindow: true}},
		{"overlapping", Config{Overlapping: true}},
	}
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var failovers, staleAcks uint64
			var maxEpoch uint32
			for seed := int64(1); seed <= 20; seed++ {
				cfg := c.cfg
				cfg.Seed = seed
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.OK() {
					t.Errorf("class %s seed %d failed:\n%s", c.name, seed, res.Report())
				}
				failovers += res.Failovers
				staleAcks += res.StaleSourceAcks
				if res.PrimaryEpoch > maxEpoch {
					maxEpoch = res.PrimaryEpoch
				}
			}
			t.Logf("class %s: 20 seeds, failovers=%d maxEpoch=%d staleAcksFenced=%d",
				c.name, failovers, maxEpoch, staleAcks)
		})
	}
}
