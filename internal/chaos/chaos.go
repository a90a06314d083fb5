// Package chaos is a deterministic fault-injection harness for the full
// LBRM topology. A seeded driver runs the paper's deployment — sender,
// primary logger, replicas, per-site secondaries, receivers — under the
// simulator's virtual clock while injecting a reproducible schedule of
// faults (crashes, partitions, flaky links; see Fault and DESIGN.md §7).
//
// The driver owns the deployment and the clock. One dispatcher turns the
// run into a history — every link traversal (decoded once, its link
// classified once), every crash, every receiver delivery, the monitoring
// cadences — and hands each event to a list of checkers. Each checker is
// one invariant with its own state in its own file; once the run has
// converged, each gives its verdict (DESIGN.md §7 lists them).
//
// Every run is reproducible from its seed alone: the same seed yields the
// same fault schedule, the same packet trace (TraceHash), and the same
// verdict. A failing seed IS the bug report.
package chaos

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"lbrm"
	"lbrm/internal/logger"
	"lbrm/internal/obs"
	"lbrm/internal/obs/health"
	"lbrm/internal/wire"
)

// Config parameterizes one chaos run. Zero values get defaults.
type Config struct {
	// Seed determines the topology rng AND the fault schedule.
	Seed int64
	// Topology (defaults: 3 sites × 3 receivers, 2 replicas).
	Sites, ReceiversPerSite, Replicas int
	// Duration is the traffic+fault phase length (default 20s virtual).
	Duration time.Duration
	// SendEvery is the data packet interval (default 150ms).
	SendEvery time.Duration
	// Faults is how many faults to schedule (default 6).
	Faults int
	// CrashPrimary forces one primary crash (plus restart as a cold
	// replica) into the schedule. Requires Replicas ≥ 1.
	CrashPrimary bool
	// SourcePartition forces a source-segment partition into the schedule:
	// the acting primary's host is isolated — deaf, mute, or both, chosen
	// by the seed — while the sender and the replicas remain mutually
	// reachable, then healed. The stale primary keeps its state and its
	// conviction of authority; epoch fencing must neutralize it (§2.2.3).
	// Mutually exclusive with CrashPrimary; requires Replicas ≥ 1.
	SourcePartition bool
	// JoinWindow draws every random fault's start from the join window
	// (t < Duration/10), when receivers and loggers are still establishing
	// first contact — the protocol's most fragile phase.
	JoinWindow bool
	// Overlapping schedules a flaky-link window and a partition window
	// that overlap on the same site's tail circuit, exercising stacked
	// fault application and out-of-order heals.
	Overlapping bool
	// Quorum enables quorum replication on the logging servers (write
	// quorum of replicas that must apply a packet before the source ack
	// mints) and switches the run to the quorum durability schedule: one
	// single replication fault plus a receiver-site partition, checked
	// against invariant 11 (DESIGN.md §12).
	// Defaults Replicas to 3 so a promoted replica still reaches a write
	// quorum of 2 from its surviving peers after any single fault.
	Quorum int
	// QuorumFault pins the quorum schedule's replication fault:
	// "crash-primary", "crash-replica", "ring-partition", or "none" (no
	// faults at all — the replication-cost accounting baseline). Empty
	// draws one of the three fault classes from the seed.
	QuorumFault string
	// quorumRevert runs the quorum schedule and invariant checks with
	// quorum replication itself disabled (test-only): used to demonstrate
	// that invariant 11 actually trips when the mechanism is reverted.
	quorumRevert bool
	// Regions, when positive, switches the run to the hierarchy schedule
	// (DESIGN.md §13): sites sit round-robin under Regions regional
	// loggers forming a three-tier recovery tree, and the fault plan
	// draws one HierarchyFault class targeting the regional tier.
	// Mutually exclusive with Quorum, CrashPrimary and SourcePartition.
	Regions int
	// HierarchyFault pins the hierarchy schedule's fault class:
	// "regional-crash" (the regional dies mid-recovery and its children
	// re-home to the sibling region, then re-adopt the restarted parent),
	// "tier-partition" (the regional is isolated, not killed: children
	// must park on the live sibling, never the primary), or "cascade"
	// (site secondary AND regional die together: receivers must walk
	// both dead tiers to the primary without skipping). Empty draws one
	// from the seed.
	HierarchyFault string
	// HealthFault replaces the random schedule with one long-lived
	// health-detection target (DESIGN.md §15): "crying-baby" — one
	// seed-chosen receiver's host down-link turns lossy for over half the
	// run, the paper's §6 crying-baby receiver — "regional-loss" — one
	// site's shared tail-down circuit turns lossy, a sustained regional
	// loss episode the whole site shares — or "none" — an empty schedule,
	// the zero-alert baseline. The health engine itself is always armed;
	// this knob only selects what it must catch. Mutually exclusive with
	// Quorum, Regions, CrashPrimary and SourcePartition (the quorum
	// "ring-partition" fault is already the ring-stall detection target).
	HealthFault string
	// flatRevert runs the hierarchy schedule with the receivers'
	// escalation chains reverted to the flat design (test-only): their
	// primary-bound NACKs then stamp tier 1 instead of the tree depth,
	// demonstrating that the tier-skip invariant actually trips when the
	// mechanism is reverted.
	flatRevert bool
	// disableFencing runs every logging server with epoch fencing off
	// (test-only): used to demonstrate that the un-fenced-primary
	// invariant actually trips when the mechanism is reverted.
	disableFencing bool
	// DisableCrashes / DisablePartitions / DisableLinkChaos remove a fault
	// class from the random schedule.
	DisableCrashes    bool
	DisablePartitions bool
	DisableLinkChaos  bool
	// ConvergeWithin bounds the post-heal recovery horizon (default 30s).
	ConvergeWithin time.Duration
	// QuiesceWindow is the trailing silence check (default 5s).
	QuiesceWindow time.Duration
	// FailoverTimeout / FailoverWait season the sender (defaults 400ms /
	// 100ms); the failover-latency invariant is derived from them.
	FailoverTimeout time.Duration
	FailoverWait    time.Duration
}

func (c Config) withDefaults() Config {
	c.Sites = cmp.Or(c.Sites, 3)
	c.ReceiversPerSite = cmp.Or(c.ReceiversPerSite, 3)
	if c.Quorum > 0 && c.Replicas == 0 {
		// A promoted replica must still reach the write quorum from its
		// surviving peers after the single fault: three replicas keep a
		// quorum of two satisfiable through any one crash or partition.
		c.Replicas = 3
	}
	if c.Replicas == 0 && c.Regions == 0 {
		// Hierarchy runs carry no warm spares: replica backfill NACKs are
		// untiered primary-to-primary traffic, which the tier-skip check
		// must never have to special-case.
		c.Replicas = 2
	}
	c.Duration = cmp.Or(c.Duration, 20*time.Second)
	c.SendEvery = cmp.Or(c.SendEvery, 150*time.Millisecond)
	c.Faults = cmp.Or(c.Faults, 6)
	c.ConvergeWithin = cmp.Or(c.ConvergeWithin, 30*time.Second)
	c.QuiesceWindow = cmp.Or(c.QuiesceWindow, 5*time.Second)
	c.FailoverTimeout = cmp.Or(c.FailoverTimeout, 400*time.Millisecond)
	c.FailoverWait = cmp.Or(c.FailoverWait, 100*time.Millisecond)
	return c
}

// Fault is one scheduled fault. At/Dur are offsets from the run start.
type Fault struct {
	At, Dur time.Duration
	// Kind is one of crash-receiver, crash-secondary, crash-replica,
	// crash-primary, partition, flaky-link, partition-source,
	// sync-blackout (drop every sync-class packet leaving the acting
	// primary's host), ring-partition (isolate one replica's host both
	// ways), crash-regional (kill one regional logger, restart it with
	// the next tree epoch), partition-regional (isolate one regional
	// logger's host both ways), down-outage (gate one site's tail-down
	// only: the site misses data while its upward control path stays
	// open).
	Kind string
	// Site and Idx locate the target where applicable (-1 otherwise).
	// For partition-source, Idx encodes the isolation mode: 0 = both
	// directions, 1 = mute (outbound gated), 2 = deaf (inbound gated).
	Site, Idx int
}

func (f Fault) String() string {
	loc := ""
	if f.Kind == "partition-source" {
		loc = " " + [...]string{"both", "mute", "deaf"}[f.Idx]
	} else {
		if f.Site >= 0 {
			loc = fmt.Sprintf(" site%d", f.Site+1)
		}
		if f.Idx >= 0 {
			loc += fmt.Sprintf("/%d", f.Idx)
		}
	}
	return fmt.Sprintf("t=%v +%v %s%s", f.At, f.Dur, f.Kind, loc)
}

// Violation is one failed invariant.
type Violation struct {
	Name   string
	Detail string
}

func (v Violation) String() string { return v.Name + ": " + v.Detail }

// Result is one chaos run's verdict.
type Result struct {
	Seed       int64
	Schedule   []Fault
	Violations []Violation
	// TraceHash fingerprints every observed link traversal; two runs of
	// the same seed must produce identical hashes.
	TraceHash uint64
	// LastSeq is the final data sequence number sent.
	LastSeq uint64
	// Failovers and Promotions from the protocol's own counters.
	Failovers, Promotions uint64
	// FailoverLatency is crash→Promote (zero if the primary never crashed).
	FailoverLatency time.Duration
	// ConvergeTook is heal→convergence (zero if never converged).
	ConvergeTook time.Duration
	// BackfillSkipped counts sequence numbers declared unrecoverable by a
	// promoted replica (data loss — possible when peers were also faulted).
	BackfillSkipped uint64
	// PrimaryEpoch is the sender's final primary epoch (1 = no failover
	// ever happened; each failover mints the next epoch).
	PrimaryEpoch uint32
	// StaleSourceAcks counts source acks the sender fenced as coming from
	// a stale (lower-epoch) primary.
	StaleSourceAcks uint64
	// TailTraffic classifies every attempted tail-circuit traversal
	// (drops included: a NACK that dies in a partition still spent the
	// attempt) by recovery-bandwidth class; TailTrafficFault is the subset
	// that happened inside a fault window.
	TailTraffic, TailTrafficFault map[string]TrafficCounters
	// Metrics is the fleet-wide merge of every handler sink's registry
	// (counters and histograms summed, gauges max-merged) after the run —
	// the same aggregation lbrm-sim's -metrics report uses.
	Metrics obs.Snapshot
	// SenderTrace is the sender sink's trace-ring snapshot: the protocol
	// transitions (DA-set epochs, failover start/done, epoch bumps) the
	// run produced, oldest first.
	SenderTrace []obs.Event
	// Flight is the fleet timeline: one merged metrics snapshot per
	// sampler tick through the whole run, rendered as the JSONL flight
	// log by lbrm-sim's -flight-log.
	Flight []obs.FlightSample
	// FlightChains counts the per-sequence recovery chains stitched from
	// the flight rings across all receivers; FlightComplete is how many of
	// them told the whole recovery story (obs.FlightChain.Complete).
	FlightChains, FlightComplete uint64
	// HealthAlerts is the always-armed health engine's full alert record
	// (cleared alerts first, then those still active at shutdown);
	// HealthDetection maps rule name → earliest raise offset from run
	// start; HealthBound echoes the engine's documented worst-case
	// detection latency; HealthEvals counts rule evaluations.
	HealthAlerts    []health.Alert
	HealthDetection map[string]time.Duration
	HealthBound     time.Duration
	HealthEvals     uint64
	// NodeTx is the wire tap's per-node transmit ledger: attempted host
	// up-link traversals (drops included) per traffic class, keyed by the
	// harness node name ("sender", "primary", "replica0", "site1/rcv0",
	// ...) and indexed by wire.TrafficClass. The replication-cost
	// accounting reads the primary's sync-class row from here.
	NodeTx map[string][]TrafficCounters
}

// TrafficCounters accumulates one traffic class's tail-circuit load.
type TrafficCounters struct {
	Packets, Bytes uint64
}

// add counts one attempted traversal of size bytes.
func (t *TrafficCounters) add(size int) { t.Packets, t.Bytes = t.Packets+1, t.Bytes+uint64(size) }

// OK reports whether every invariant held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Report renders a human-readable run summary.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d lastSeq=%d failovers=%d promotions=%d\n",
		r.Seed, r.LastSeq, r.Failovers, r.Promotions)
	for _, f := range r.Schedule {
		fmt.Fprintf(&b, "  fault: %s\n", f)
	}
	if r.FailoverLatency > 0 {
		fmt.Fprintf(&b, "  failover latency: %v\n", r.FailoverLatency)
	}
	if r.ConvergeTook > 0 {
		fmt.Fprintf(&b, "  converged in: %v\n", r.ConvergeTook)
	}
	if r.BackfillSkipped > 0 {
		fmt.Fprintf(&b, "  backfill skipped: %d seqs\n", r.BackfillSkipped)
	}
	fmt.Fprintf(&b, "  primary epoch: %d; stale source acks fenced: %d\n",
		r.PrimaryEpoch, r.StaleSourceAcks)
	if len(r.TailTraffic) > 0 {
		var classes []string
		for c := range r.TailTraffic {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		b.WriteString("  tail-circuit traffic (attempted traversals):\n")
		for _, c := range classes {
			tc := r.TailTraffic[c]
			ft := r.TailTrafficFault[c]
			fmt.Fprintf(&b, "    %-9s %6d pkts %8d B  (in fault windows: %d pkts %d B)\n",
				c, tc.Packets, tc.Bytes, ft.Packets, ft.Bytes)
		}
	}
	fmt.Fprintf(&b, "  flight recorder: %d chains (%d complete), %d timeline samples\n",
		r.FlightChains, r.FlightComplete, len(r.Flight))
	fmt.Fprintf(&b, "  health engine: %d evals, %d alerts (detection bound %v)\n",
		r.HealthEvals, len(r.HealthAlerts), r.HealthBound)
	if len(r.HealthDetection) > 0 {
		var rules []string
		for rule := range r.HealthDetection {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			fmt.Fprintf(&b, "    first %s raise at t=%v\n", rule, r.HealthDetection[rule])
		}
	}
	fmt.Fprintf(&b, "  trace hash: %016x\n", r.TraceHash)
	if r.OK() {
		b.WriteString("  PASS: all invariants held\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  FAIL %s\n", v)
		}
	}
	return b.String()
}

// driver owns one run: the deployment, the clock, the dispatcher and the
// checkers it feeds. It holds no invariant state of its own.
type driver struct {
	*fleet
	cfg   Config
	res   *Result
	roles map[*lbrm.Link]role

	checkers []checker
	health   *healthChecker // its sink joins the fleet timeline
	flight   *flightChecker // its chain breakdowns join Result.Metrics

	dec wire.Decoder
	pkt wire.Packet
	ev  event

	// Every handler ever created, for shutdown; stopped ends the cadences.
	stoppables []interface{ Stop() }
	stopped    bool
}

// monitorEvery is the un-fenced-primary check cadence.
const monitorEvery = 25 * time.Millisecond

// flightSampleEvery is the fleet timeline sampler cadence.
const flightSampleEvery = time.Second

// Run executes one chaos run and returns its verdict. The only error cases
// are construction failures; invariant violations are reported in the
// Result, not as errors.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	schedule := buildSchedule(cfg)
	d := &driver{cfg: cfg, res: &Result{
		Seed: cfg.Seed, Schedule: schedule,
		TailTraffic:      make(map[string]TrafficCounters),
		TailTrafficFault: make(map[string]TrafficCounters),
	}}

	// The revert knob runs the quorum schedule and invariant checks with
	// quorum replication itself off: the primary acks (and the sender
	// releases) ahead of replication again, re-opening the loss window
	// invariant 11 exists to close.
	pq := cfg.Quorum
	if cfg.quorumRevert {
		pq = 0
	}
	// Handlers send from Start (the quorum ring installation), before the
	// links are classified: buffer those boot traversals and replay them
	// through the real tap once registration is done, so every ledger
	// starts complete.
	var boot []lbrm.TapEvent
	secCfg := lbrm.SecondaryConfig{
		NackDelay:      10 * time.Millisecond,
		RequestTimeout: 200 * time.Millisecond,
	}
	if cfg.Regions > 0 {
		// Re-homing burns MaxRetries per chain candidate; keep the walk
		// fast enough that children reach a live sibling well inside the
		// fault window.
		secCfg.MaxRetries = 2
	}
	tb, err := lbrm.NewTestbed(lbrm.TestbedConfig{
		Seed:             cfg.Seed,
		Sites:            cfg.Sites,
		ReceiversPerSite: cfg.ReceiversPerSite,
		Replicas:         cfg.Replicas,
		Regions:          cfg.Regions,
		Tap:              func(ev lbrm.TapEvent) { boot = append(boot, ev) },
		Primary:          lbrm.PrimaryConfig{Quorum: pq},
		ConfigureReceiver: func(site, idx int, rcfg *lbrm.ReceiverConfig) {
			if cfg.flatRevert {
				// Revert knob: strip the multi-tier chain so the receiver
				// escalates site → primary as in the flat design.
				rcfg.Loggers = nil
			}
			// Retained in the receiver config, so it survives restarts.
			// Deliveries need virtual time, which starts after
			// registration.
			rcfg.OnData = func(e lbrm.Event) {
				n := d.roles[d.tb.Sites[site].ReceiverNodes[idx].UpLink()].node
				d.dispatch(event{kind: evDeliver, role: role{node: n}, data: e})
			}
		},
		Sender: lbrm.SenderConfig{
			Heartbeat:       lbrm.HeartbeatParams{HMin: 50 * time.Millisecond, HMax: 400 * time.Millisecond, Backoff: 2},
			FailoverTimeout: cfg.FailoverTimeout,
			FailoverWait:    cfg.FailoverWait,
		},
		Secondary: secCfg,
		Receiver: lbrm.ReceiverConfig{
			NackDelay:      10 * time.Millisecond,
			RequestTimeout: 200 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	d.register(tb)
	clk := tb.Net.Clock()
	start := clk.Now()
	d.checkers = d.newCheckers(start)
	for _, ev := range boot {
		d.tap(ev)
	}
	tb.Net.SetTap(d.tap)

	for _, f := range schedule {
		clk.AfterFunc(f.At, func() { d.applyFault(f) })
	}
	d.every(monitorEvery, func(now time.Time) { d.dispatch(event{kind: evMonitor, at: now}) })
	d.every(flightSampleEvery, func(now time.Time) {
		// The health engine samples first, on evSample, so the timeline
		// carries this tick's fresh health.* gauges.
		d.dispatch(event{kind: evSample, at: now})
		snap := d.fleetSnapshot(d.health.sink.Registry().Snapshot())
		d.res.Flight = append(d.res.Flight, obs.FlightSample{At: now.UnixNano(), Metrics: snap})
	})

	// Traffic phase: steady low-rate data through the whole fault window.
	for t := time.Duration(0); t < cfg.Duration; t += cfg.SendEvery {
		seq, err := tb.Send([]byte("chaos-payload"))
		if err != nil {
			return nil, err
		}
		d.res.LastSeq = seq
		tb.Run(cfg.SendEvery)
	}

	// Convergence phase: every fault has healed (buildSchedule guarantees
	// At+Dur < Duration); poll until the invariant targets are met.
	healAt := clk.Now()
	const poll = 100 * time.Millisecond
	converged := false
	for el := time.Duration(0); el < cfg.ConvergeWithin; el += poll {
		tb.Run(poll)
		if d.lagReport() == "" {
			converged = true
			d.res.ConvergeTook = clk.Now().Sub(healAt)
			break
		}
	}
	if !converged {
		d.res.violate("convergence", "%s", d.lagReport())
	} else {
		// Quiesce: after convergence, recovery traffic must dry up. Cold
		// restarted servers may still be draining a terminating fetch
		// schedule (bounded by MaxRetries), so allow a few windows for the
		// tail — but a leaked retry loop or synchronized retry storm never
		// produces a silent window.
		before := d.nackCount()
		quiet := false
		for i := 0; i < 6 && !quiet; i++ {
			tb.Run(cfg.QuiesceWindow)
			after := d.nackCount()
			quiet = after == before
			before = after
		}
		if !quiet {
			d.res.violate("quiesce", "NACK traffic still flowing %v after convergence",
				6*cfg.QuiesceWindow)
		}
	}
	for _, c := range d.checkers {
		c.final()
	}

	// Shutdown: stop every handler ever created and drain. Anything still
	// pending after the drain re-armed itself past shutdown — a leak. The
	// cadences are stopped first so their last armed ticks fire into a
	// no-op instead of re-arming forever.
	d.stopped = true
	for _, s := range d.stoppables {
		s.Stop()
	}
	tb.Run(30 * time.Second)
	if n := clk.Len(); n != 0 {
		d.res.violate("timer-leak", "%d events still pending after shutdown drain", n)
	}

	d.res.Failovers = tb.Sender.Stats().Failovers
	d.res.PrimaryEpoch = tb.Sender.PrimaryEpoch()
	d.res.StaleSourceAcks = tb.Sender.Stats().StaleSourceAcks
	for _, p := range d.primaries {
		d.res.Promotions += p.Stats().Promotions
		d.res.BackfillSkipped += p.Stats().BackfillSkipped
	}
	// The fleet view adds the chains' latency breakdowns and the health
	// engine's own metrics; its final sample closes the timeline, so the
	// JSONL flight log carries the end-of-run flight.* chain summary.
	d.res.Metrics = d.fleetSnapshot(d.flight.reg.Snapshot(), d.health.sink.Registry().Snapshot())
	d.res.Flight = append(d.res.Flight, obs.FlightSample{At: clk.Now().UnixNano(), Metrics: d.res.Metrics})
	d.res.SenderTrace = tb.SenderCfg.Obs.Ring().Snapshot()
	return d.res, nil
}

// validate rejects contradictory configurations.
func (c Config) validate() error {
	switch {
	case c.CrashPrimary && c.Replicas < 1:
		return fmt.Errorf("chaos: CrashPrimary requires at least one replica")
	case c.SourcePartition && c.Replicas < 1:
		return fmt.Errorf("chaos: SourcePartition requires at least one replica")
	case c.SourcePartition && c.CrashPrimary:
		return fmt.Errorf("chaos: SourcePartition and CrashPrimary are mutually exclusive (both target the acting primary)")
	case c.Quorum > c.Replicas:
		return fmt.Errorf("chaos: write quorum %d unsatisfiable with %d replicas", c.Quorum, c.Replicas)
	case c.Quorum > 0 && !slices.Contains([]string{"", quorumFaultCrashPrimary,
		quorumFaultCrashReplica, quorumFaultRingLink, quorumFaultNone}, c.QuorumFault):
		return fmt.Errorf("chaos: unknown QuorumFault %q", c.QuorumFault)
	case c.Regions > 0 && (c.Quorum > 0 || c.CrashPrimary || c.SourcePartition || c.Replicas > 0):
		return fmt.Errorf("chaos: the hierarchy schedule is mutually exclusive with Quorum, Replicas, CrashPrimary and SourcePartition")
	case c.Sites < c.Regions:
		return fmt.Errorf("chaos: %d regions need at least as many sites, have %d", c.Regions, c.Sites)
	case c.Regions > 0 && !slices.Contains([]string{"", hierFaultRegionalCrash,
		hierFaultTierPartition, hierFaultCascade}, c.HierarchyFault):
		return fmt.Errorf("chaos: unknown HierarchyFault %q", c.HierarchyFault)
	case c.HealthFault != "" && (c.Quorum > 0 || c.Regions > 0 || c.CrashPrimary || c.SourcePartition):
		return fmt.Errorf("chaos: HealthFault is mutually exclusive with Quorum, Regions, CrashPrimary and SourcePartition")
	case c.HealthFault != "" && !slices.Contains([]string{healthFaultCryingBaby,
		healthFaultRegionalLoss, healthFaultNone}, c.HealthFault):
		return fmt.Errorf("chaos: unknown HealthFault %q", c.HealthFault)
	}
	return nil
}

// register builds the fleet from the testbed — every protocol host as a
// node, every handler's first incarnation — and classifies every link a
// checker looks at.
func (d *driver) register(tb *lbrm.Testbed) {
	f := &fleet{tb: tb}
	d.fleet = f
	d.roles = make(map[*lbrm.Link]role)
	reg := func(sn *lbrm.SimNode, name, pfx string, sink *obs.Sink, site, idx int) *node {
		n := &node{id: int(sn.ID()), name: name, pfx: pfx, sink: sink, site: site, idx: idx, index: len(f.nodes)}
		f.nodes = append(f.nodes, n)
		d.roles[sn.UpLink()] = role{link: linkHostUp, node: n}
		return n
	}
	reg(tb.SenderNode, "sender", "sender", tb.SenderCfg.Obs, -1, -1)
	pri := reg(tb.PrimaryNode, "primary", "primary", tb.PrimaryCfg.Obs, -1, -1)
	d.roles[tb.PrimaryNode.DownLink()] = role{link: linkHostDown, node: pri}
	for i, sn := range tb.ReplicaNodes {
		reg(sn, fmt.Sprintf("replica%d", i), "primary", tb.ReplicaCfgs[i].Obs, -1, -1)
	}
	for i, r := range tb.Regions {
		reg(r.LoggerNode, fmt.Sprintf("region%d/logger", i+1), "secondary", r.LoggerCfg.Obs, -1, -1)
		d.stoppables = append(d.stoppables, r.Logger)
	}
	f.primaries = append([]*lbrm.PrimaryLogger{tb.Primary}, tb.Replicas...)
	f.primaryNodes = append([]*lbrm.SimNode{tb.PrimaryNode}, tb.ReplicaNodes...)
	d.stoppables = append(d.stoppables, tb.Sender)
	for _, p := range f.primaries {
		if d.cfg.disableFencing {
			logger.UnfenceForTest(p)
		}
		d.stoppables = append(d.stoppables, p)
	}
	d.roles[tb.SourceSite.TailUp()] = role{link: linkTailUp, site: -1}
	d.roles[tb.SourceSite.TailDown()] = role{link: linkTailDown, site: -1}
	for s, ts := range tb.Sites {
		d.roles[ts.Site.TailUp()] = role{link: linkTailUp, site: s}
		d.roles[ts.Site.TailDown()] = role{link: linkTailDown, site: s}
		reg(ts.SecondaryNode, fmt.Sprintf("site%d/secondary", s+1), "secondary", ts.SecondaryCfg.Obs, s, -1)
		f.secondaries = append(f.secondaries, ts.Secondary)
		d.stoppables = append(d.stoppables, ts.Secondary)
		for j, sn := range ts.ReceiverNodes {
			n := reg(sn, fmt.Sprintf("site%d/rcv%d", s+1, j), "recv", ts.ReceiverCfgs[j].Obs, s, j)
			d.roles[sn.DownLink()] = role{link: linkHostDown, node: n}
			f.rcvNodes = append(f.rcvNodes, n)
			d.stoppables = append(d.stoppables, ts.Receivers[j])
		}
		f.receivers = append(f.receivers, append([]*lbrm.Receiver(nil), ts.Receivers...))
	}
}

// newCheckers builds the run's checkers, in the order their verdicts are
// given. Schedule-specific invariants join only their schedule's runs.
func (d *driver) newCheckers(start time.Time) []checker {
	res, f, cfg := d.res, d.fleet, d.cfg
	d.health = newHealthChecker(res, f, start)
	d.flight = &flightChecker{res: res, f: f, rcv: make(map[*node]*rcvFlight)}
	cs := []checker{
		traceHash{res},
		&tailTraffic{res, start},
		d.health,
		singlePrimary{res, f},
		&nackBudget{res: res, nodes: f.nodes, tail: make([]uint64, len(f.receivers))},
		newTxLedger(res, f.nodes),
		&epochs{res: res, f: f, last: make(map[int]uint32)},
		&acks{res: res, last: make(map[ackKey]uint64)},
		newFencing(res, f, start),
		d.flight,
	}
	if cfg.Quorum > 0 {
		cs = append(cs, newNoSkip(res, f, "quorum"), &quorumChecker{res: res, f: f})
	}
	if cfg.Regions > 0 {
		pri := d.roles[d.tb.PrimaryNode.DownLink()].node
		cs = append(cs, newTierSkip(res, pri), hierarchyChecker{res, f}, newNoSkip(res, f, "hierarchy"))
	}
	return append(cs, newFailover(res, cfg, start))
}

// every calls fn each period of virtual time until shutdown.
func (d *driver) every(period time.Duration, fn func(now time.Time)) {
	clk := d.tb.Net.Clock()
	var tick func()
	tick = func() {
		if d.stopped {
			return
		}
		fn(clk.Now())
		clk.AfterFunc(period, tick)
	}
	clk.AfterFunc(period, tick)
}

// fleetSnapshot merges every node sink's registry with extra.
func (d *driver) fleetSnapshot(extra ...obs.Snapshot) obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(d.nodes)+len(extra))
	for _, n := range d.nodes {
		snaps = append(snaps, n.sink.Registry().Snapshot())
	}
	return obs.Merge(append(snaps, extra...)...)
}

// violate records one failed invariant.
func (r *Result) violate(name, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Name: name, Detail: fmt.Sprintf(format, args...)})
}

// lagReport names the convergence stragglers: a sender still retaining
// data, and every live receiver short of the last sent sequence number.
// The run has converged when it is empty.
func (d *driver) lagReport() string {
	var lags []string
	if n := d.tb.Sender.Retained(); n != 0 {
		lags = append(lags, fmt.Sprintf("sender retains %d", n))
	}
	key := lbrm.StreamKey{Source: d.tb.Source, Group: d.tb.Group}
	for s, ts := range d.tb.Sites {
		for i, sn := range ts.ReceiverNodes {
			if sn.Crashed() {
				continue
			}
			if got := d.receivers[s][i].Contiguous(key); got < d.res.LastSeq {
				lags = append(lags, fmt.Sprintf("site%d/rcv%d at %d/%d", s+1, i, got, d.res.LastSeq))
			}
		}
	}
	return strings.Join(lags, "; ")
}

// nackCount sums the NACKs the fleet ever sent — receivers' requests,
// secondaries' and regionals' escalations, promoted primaries' backfill
// fetches — over every incarnation.
func (d *driver) nackCount() uint64 {
	var n uint64
	for _, nd := range d.nodes {
		if name := nackCounter[nd.pfx]; name != "" {
			n += nd.sink.Counter(name).Value()
		}
	}
	return n
}

// nackCounter names each metric prefix's NACK counter.
var nackCounter = map[string]string{
	"recv":      "recv.nacks_sent",
	"secondary": "secondary.nacks_to_primary",
	"primary":   "primary.backfill_nacks",
}
