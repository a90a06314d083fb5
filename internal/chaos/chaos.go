// Package chaos is a deterministic fault-injection harness for the full
// LBRM topology. A seeded orchestrator drives the paper's deployment —
// sender, primary logger, replicas, per-site secondaries, receivers — under
// the simulator's virtual clock while injecting a reproducible schedule of
// faults: process crashes with total state loss and later restart, site
// partitions (tail-circuit gates), and flaky-link windows (random loss +
// duplication + reordering). After the last fault heals it checks the
// protocol's end-to-end recovery invariants:
//
//   - every live receiver converges to the sender's last sequence number
//     within a bounded horizon (freshness over completeness: abandoned
//     ranges advance the watermark too);
//   - the sender's retention buffer drains to zero;
//   - exactly one acting (non-replica) primary remains among live loggers;
//   - acknowledgement sequence numbers (source acks and replica sync acks)
//     are monotone per node incarnation;
//   - after convergence the network goes quiet — no NACK traffic at all in
//     a trailing window (retry storms and leaked retry loops show up here);
//   - if the primary crashed, failover completed within the analytic bound;
//   - primary-epoch monotonicity per observer: no node's authority-bearing
//     traffic (source acks, log syncs, sync acks, promotes, redirects,
//     heartbeats) ever regresses to a lower primary epoch within one
//     incarnation;
//   - at most one un-fenced acting primary at every virtual instant: a
//     second acting primary may exist only while a fault window isolates it
//     (it cannot have heard the new epoch) or within a short grace after
//     the heal;
//   - NACK budget (§2.2.2): every NACK traversal attempted on a receiver
//     site's tail circuit is accounted for by that site's secondary and
//     receiver NacksToPrimary counters — recovery load on the backbone is
//     exactly the per-site aggregate, nothing leaks around it;
//   - flight-recorder completeness (DESIGN.md §10): every packet the
//     harness observed a receiver recover has a complete, causally ordered
//     recovery chain in the flight rings (detect → NACK → serve → deliver),
//     and the chain's delivery and NACK timestamps reconcile with the wire
//     tap's independent measurements within one host-link delay;
//   - after everything stops, the event queue drains — a timer that
//     re-arms itself past shutdown is a leak;
//   - quorum durability (invariant 11, quorum schedules only): under any
//     single replication fault with a surviving write quorum, zero
//     receiver skips, zero abandoned recovery ranges, zero backfill
//     skips, and no source-acked sequence lost (DESIGN.md §12).
//
// Beyond the original crash/partition/flaky-link faults, the schedule can
// include a source-segment partition (the acting primary isolated deaf,
// mute, or both while sender and replicas stay mutually reachable —
// §2.2.3's split-brain scenario), join-window faults (everything fired in
// the first tenth of the run, while streams are still establishing state),
// and overlapping fault windows on one site's tail circuit.
//
// Every run is reproducible from its seed alone: the same seed yields the
// same fault schedule, the same packet trace (TraceHash), and the same
// verdict. A failing seed IS the bug report.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lbrm"
	"lbrm/internal/logger"
	"lbrm/internal/netsim"
	"lbrm/internal/obs"
	"lbrm/internal/obs/health"
	"lbrm/internal/obs/series"
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
	// against invariant 11 — zero receiver skips, zero abandoned ranges,
	// zero backfill skips, no acked-sequence loss (DESIGN.md §12).
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
	// draws one HierarchyFault class targeting the regional tier. The
	// hierarchy invariants then apply: escalation never skips a live
	// tier (every NACK reaching the primary is stamped with the
	// primary's tier), re-homed children converge back to a live parent,
	// and no acknowledged data is lost across re-parenting. Mutually
	// exclusive with Quorum, CrashPrimary and SourcePartition.
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
	if c.Sites == 0 {
		c.Sites = 3
	}
	if c.ReceiversPerSite == 0 {
		c.ReceiversPerSite = 3
	}
	if c.Quorum > 0 && c.Replicas == 0 {
		// A promoted replica must still reach the write quorum from its
		// surviving peers after the single fault: three replicas keep a
		// quorum of two satisfiable through any one crash or partition.
		c.Replicas = 3
	}
	if c.Replicas == 0 && c.Regions == 0 {
		// Hierarchy runs carry no warm spares: replica backfill NACKs are
		// untiered primary-to-primary traffic, which the tier-skip tap
		// check must never have to special-case.
		c.Replicas = 2
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Second
	}
	if c.SendEvery == 0 {
		c.SendEvery = 150 * time.Millisecond
	}
	if c.Faults == 0 {
		c.Faults = 6
	}
	if c.ConvergeWithin == 0 {
		c.ConvergeWithin = 30 * time.Second
	}
	if c.QuiesceWindow == 0 {
		c.QuiesceWindow = 5 * time.Second
	}
	if c.FailoverTimeout == 0 {
		c.FailoverTimeout = 400 * time.Millisecond
	}
	if c.FailoverWait == 0 {
		c.FailoverWait = 100 * time.Millisecond
	}
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

// trafficClass buckets a packet type for recovery-bandwidth accounting. It
// delegates to the wire-level classification, so the tap and the
// components' per-class transmit metrics can never disagree on bucketing.
func trafficClass(t wire.Type) string { return wire.ClassOf(t).String() }

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

// bump adds one attempted traversal to a traffic-class counter.
func bump(m map[string]TrafficCounters, cls string, size int) {
	c := m[cls]
	c.Packets++
	c.Bytes += uint64(size)
	m[cls] = c
}

// ackKey identifies one acknowledgement stream for monotonicity tracking.
type ackKey struct {
	node int
	typ  wire.Type
	src  wire.SourceID
	grp  wire.GroupID
}

// harness owns one run's mutable state.
type harness struct {
	cfg Config
	tb  *lbrm.Testbed
	res *Result

	key    lbrm.StreamKey
	logKey lbrm.LogStreamKey

	// Current handler incarnations (replaced on restart).
	receivers   [][]*lbrm.Receiver
	secondaries []*lbrm.SecondaryLogger
	regionals   []*lbrm.SecondaryLogger
	// primaries[0] is the original primary's node; 1.. are replicas.
	primaries    []*lbrm.PrimaryLogger
	primaryNodes []*lbrm.SimNode

	// Hierarchy-invariant state (Regions > 0): priDown is the acting
	// primary's host down-link; every NACK traversal there must stamp the
	// tree depth (tier-skip invariant), priNacks counts them.
	priDown     *lbrm.Link
	priNacks    uint64
	tierSkipHit bool

	// Every handler ever created, for shutdown.
	stoppables []interface{ Stop() }

	// Tap state.
	hash           uint64
	lastAck        map[ackKey]uint64
	primaryCrashAt time.Time
	promoteAt      time.Time

	// Epoch-fencing invariant state.
	start time.Time
	// lastEpoch tracks the highest primary epoch each node has stamped on
	// authority-bearing traffic (per incarnation; cleared on crash).
	lastEpoch map[int]uint32
	// excuseFrom/To is the window in which the original primary is excused
	// from the un-fenced-primary check: it is isolated by a source-segment
	// partition (or just healed and has not yet heard the new epoch).
	excuseFrom, excuseTo time.Time
	monitorStop          bool
	unfencedHit          bool
	epochHit             bool

	// Recovery-bandwidth accounting.
	tailLinks    map[*lbrm.Link]bool
	tailUpSite   map[*lbrm.Link]int
	faultWindows []timeWindow
	// nackUp counts attempted TypeNack traversals per receiver site's
	// tail-up link; deadNacks accumulates NacksToPrimary of crashed
	// handler incarnations per site.
	nackUp, deadNacks []uint64

	// Metrics-vs-tap cross-check state (DESIGN.md §9). Every protocol
	// handler's host up-link is registered here together with the obs sink
	// its incarnations share: the testbed retains each sink in the handler
	// config and restarts rebuild from that config, so one registry
	// accumulates across incarnations. Every send a handler makes traverses
	// its host up-link exactly once (drops included — components count
	// before env.Send, the tap counts attempted traversals), and nothing
	// else routes through that link, so the tap-side per-class counts in
	// upTx must reconcile exactly with the sink's "<pfx>.tx.<class>"
	// counters.
	upNode   map[*lbrm.Link]int
	nodeID   []int
	nodeName []string
	nodePfx  []string
	nodeSink []*obs.Sink
	upTx     [][]TrafficCounters // [registered node][wire.TrafficClass]
	// Per-site sink handles for the metrics-side NACK budget identity.
	siteSecSink []*obs.Sink
	siteRcvSink [][]*obs.Sink
	// Health engine state (DESIGN.md §15): per-site + servers samplers
	// fed from the flight tick, evaluated on the same cadence.
	healthSink  *obs.Sink
	hEngine     *health.Engine
	siteSampler []*series.Sampler
	srvSampler  *series.Sampler
	srvSinks    []*obs.Sink

	// Flight-recorder reconciliation state (DESIGN.md §10): recovered is
	// the harness's own ledger of retransmitted deliveries per receiver
	// (recorded via the receivers' OnData hook, surviving restarts because
	// the testbed retains the wrapped config); repairs and nackFirst are
	// the wire tap's independent measurements of repair arrivals on each
	// receiver's host down-link and first NACK departure per sequence on
	// its up-link. rcvRestarted marks receivers whose flight ring spans
	// incarnations — only the relaxed chain check applies to those.
	recovered    [][]map[uint64]bool
	rcvRestarted [][]bool
	// delivered is the harness's complete per-receiver delivery ledger
	// (every OnData event, retransmitted or not); maxSourceAck is the
	// highest sequence the tap saw any primary source-ack (attempted
	// non-dropped traversals). Both feed invariant 11.
	delivered    [][]map[uint64]bool
	maxSourceAck uint64
	rcvDown      map[*lbrm.Link]rcvRef
	rcvUp        map[*lbrm.Link]rcvRef
	repairs      [][]map[uint64][]tapRepair
	nackFirst    [][]map[uint64]time.Time
	// flightReg accumulates the stitched chains' latency breakdowns
	// (obs.FoldFlightChains); merged into Result.Metrics.
	flightReg *obs.Registry
}

// rcvRef locates one receiver in the deployment.
type rcvRef struct{ site, idx int }

// tapRepair is one repair-classified arrival the wire tap observed heading
// for a receiver's host down-link: at is the delivery instant (tap time
// plus the link's propagation delay — host links are jitter-free), path is
// the wire-level recovery-path classification.
type tapRepair struct {
	at   time.Time
	path wire.RecoveryPath
}

// timeWindow is a half-open absolute time interval.
type timeWindow struct{ from, to time.Time }

// monitorEvery is the un-fenced-primary check cadence.
const monitorEvery = 25 * time.Millisecond

// fenceGrace is how long after a heal a stale acting primary is still
// excused: one heartbeat interval (HMax 400ms) plus propagation slack must
// suffice for it to hear the new epoch and self-demote.
const fenceGrace = 650 * time.Millisecond

// flightTick is the reconciliation tolerance between the flight recorder's
// hop timestamps and the wire tap's independent measurement: one host-link
// propagation delay (host links carry no jitter, so delivery happens at
// tap time + delay exactly; the tolerance absorbs rounding only).
const flightTick = netsim.DefaultLANDelay

// flightSampleEvery is the fleet timeline sampler cadence.
const flightSampleEvery = time.Second

// Run executes one chaos run and returns its verdict. The only error cases
// are construction failures; invariant violations are reported in the
// Result, not as errors.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.CrashPrimary && cfg.Replicas < 1 {
		return nil, fmt.Errorf("chaos: CrashPrimary requires at least one replica")
	}
	if cfg.SourcePartition && cfg.Replicas < 1 {
		return nil, fmt.Errorf("chaos: SourcePartition requires at least one replica")
	}
	if cfg.SourcePartition && cfg.CrashPrimary {
		return nil, fmt.Errorf("chaos: SourcePartition and CrashPrimary are mutually exclusive (both target the acting primary)")
	}
	if cfg.Quorum > 0 {
		if cfg.Quorum > cfg.Replicas {
			return nil, fmt.Errorf("chaos: write quorum %d unsatisfiable with %d replicas", cfg.Quorum, cfg.Replicas)
		}
		switch cfg.QuorumFault {
		case "", quorumFaultCrashPrimary, quorumFaultCrashReplica, quorumFaultRingLink, quorumFaultNone:
		default:
			return nil, fmt.Errorf("chaos: unknown QuorumFault %q", cfg.QuorumFault)
		}
	}
	if cfg.Regions > 0 {
		if cfg.Quorum > 0 || cfg.CrashPrimary || cfg.SourcePartition || cfg.Replicas > 0 {
			return nil, fmt.Errorf("chaos: the hierarchy schedule is mutually exclusive with Quorum, Replicas, CrashPrimary and SourcePartition")
		}
		if cfg.Sites < cfg.Regions {
			return nil, fmt.Errorf("chaos: %d regions need at least as many sites, have %d", cfg.Regions, cfg.Sites)
		}
		switch cfg.HierarchyFault {
		case "", hierFaultRegionalCrash, hierFaultTierPartition, hierFaultCascade:
		default:
			return nil, fmt.Errorf("chaos: unknown HierarchyFault %q", cfg.HierarchyFault)
		}
	}
	if cfg.HealthFault != "" {
		if cfg.Quorum > 0 || cfg.Regions > 0 || cfg.CrashPrimary || cfg.SourcePartition {
			return nil, fmt.Errorf("chaos: HealthFault is mutually exclusive with Quorum, Regions, CrashPrimary and SourcePartition")
		}
		switch cfg.HealthFault {
		case healthFaultCryingBaby, healthFaultRegionalLoss, healthFaultNone:
		default:
			return nil, fmt.Errorf("chaos: unknown HealthFault %q", cfg.HealthFault)
		}
	}
	schedule := buildSchedule(cfg)

	// The harness's own recovery ledger, fed by the receivers' OnData hook:
	// every Retransmitted delivery lands here, independent of the flight
	// recorder it will later be reconciled against. The maps are allocated
	// up front so the ConfigureReceiver closures (retained in the receiver
	// configs, hence surviving crash/restart) can capture them.
	recovered := make([][]map[uint64]bool, cfg.Sites)
	delivered := make([][]map[uint64]bool, cfg.Sites)
	for s := range recovered {
		recovered[s] = make([]map[uint64]bool, cfg.ReceiversPerSite)
		delivered[s] = make([]map[uint64]bool, cfg.ReceiversPerSite)
		for j := range recovered[s] {
			recovered[s][j] = make(map[uint64]bool)
			delivered[s][j] = make(map[uint64]bool)
		}
	}

	// The revert knob runs the quorum schedule and invariant checks with
	// quorum replication itself off: the primary acks (and the sender
	// releases) ahead of replication again, re-opening the loss window
	// invariant 11 exists to close.
	pq := cfg.Quorum
	if cfg.quorumRevert {
		pq = 0
	}
	// Handlers send from Start (the quorum ring installation), before this
	// function can build its link-registration maps: buffer those boot
	// traversals and replay them through the real tap once registration is
	// done, so the transmit ledgers start complete.
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
			rec := recovered[site][idx]
			del := delivered[site][idx]
			rcfg.OnData = func(e lbrm.Event) {
				del[e.Seq] = true
				if e.Retransmitted {
					rec[e.Seq] = true
				}
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

	h := &harness{
		cfg: cfg,
		tb:  tb,
		res: &Result{
			Seed: cfg.Seed, Schedule: schedule,
			TailTraffic:      make(map[string]TrafficCounters),
			TailTrafficFault: make(map[string]TrafficCounters),
		},
		key:        lbrm.StreamKey{Source: tb.Source, Group: tb.Group},
		logKey:     lbrm.LogStreamKey{Source: tb.Source, Group: tb.Group},
		lastAck:    make(map[ackKey]uint64),
		lastEpoch:  make(map[int]uint32),
		tailLinks:  make(map[*lbrm.Link]bool),
		tailUpSite: make(map[*lbrm.Link]int),
		nackUp:     make([]uint64, cfg.Sites),
		deadNacks:  make([]uint64, cfg.Sites),
		recovered:  recovered,
		delivered:  delivered,
		rcvDown:    make(map[*lbrm.Link]rcvRef),
		rcvUp:      make(map[*lbrm.Link]rcvRef),
	}
	for s, ts := range tb.Sites {
		h.rcvRestarted = append(h.rcvRestarted, make([]bool, cfg.ReceiversPerSite))
		h.repairs = append(h.repairs, make([]map[uint64][]tapRepair, cfg.ReceiversPerSite))
		h.nackFirst = append(h.nackFirst, make([]map[uint64]time.Time, cfg.ReceiversPerSite))
		for j, node := range ts.ReceiverNodes {
			h.rcvDown[node.DownLink()] = rcvRef{site: s, idx: j}
			h.rcvUp[node.UpLink()] = rcvRef{site: s, idx: j}
			h.repairs[s][j] = make(map[uint64][]tapRepair)
			h.nackFirst[s][j] = make(map[uint64]time.Time)
		}
	}
	h.tailLinks[tb.SourceSite.TailUp()] = true
	h.tailLinks[tb.SourceSite.TailDown()] = true
	for i, ts := range tb.Sites {
		h.tailLinks[ts.Site.TailUp()] = true
		h.tailLinks[ts.Site.TailDown()] = true
		h.tailUpSite[ts.Site.TailUp()] = i
	}
	h.upNode = make(map[*lbrm.Link]int)
	regNode := func(node *lbrm.SimNode, name, pfx string, sink *obs.Sink) {
		h.upNode[node.UpLink()] = len(h.nodeSink)
		h.nodeID = append(h.nodeID, int(node.ID()))
		h.nodeName = append(h.nodeName, name)
		h.nodePfx = append(h.nodePfx, pfx)
		h.nodeSink = append(h.nodeSink, sink)
		h.upTx = append(h.upTx, make([]TrafficCounters, wire.NumTrafficClasses))
	}
	regNode(tb.SenderNode, "sender", "sender", tb.SenderCfg.Obs)
	regNode(tb.PrimaryNode, "primary", "primary", tb.PrimaryCfg.Obs)
	h.srvSinks = append(h.srvSinks, tb.PrimaryCfg.Obs)
	for i, node := range tb.ReplicaNodes {
		regNode(node, fmt.Sprintf("replica%d", i), "primary", tb.ReplicaCfgs[i].Obs)
		h.srvSinks = append(h.srvSinks, tb.ReplicaCfgs[i].Obs)
	}
	for i, reg := range tb.Regions {
		regNode(reg.LoggerNode, fmt.Sprintf("region%d/logger", i+1), "secondary", reg.LoggerCfg.Obs)
		h.regionals = append(h.regionals, reg.Logger)
		h.stoppables = append(h.stoppables, reg.Logger)
	}
	if cfg.Regions > 0 {
		h.priDown = tb.PrimaryNode.DownLink()
	}
	for i, ts := range tb.Sites {
		regNode(ts.SecondaryNode, fmt.Sprintf("site%d/secondary", i+1), "secondary", ts.SecondaryCfg.Obs)
		h.siteSecSink = append(h.siteSecSink, ts.SecondaryCfg.Obs)
		var sinks []*obs.Sink
		for j, node := range ts.ReceiverNodes {
			regNode(node, fmt.Sprintf("site%d/rcv%d", i+1, j), "recv", ts.ReceiverCfgs[j].Obs)
			sinks = append(sinks, ts.ReceiverCfgs[j].Obs)
		}
		h.siteRcvSink = append(h.siteRcvSink, sinks)
	}
	for _, ts := range tb.Sites {
		h.receivers = append(h.receivers, append([]*lbrm.Receiver(nil), ts.Receivers...))
		h.secondaries = append(h.secondaries, ts.Secondary)
	}
	h.primaries = append([]*lbrm.PrimaryLogger{tb.Primary}, tb.Replicas...)
	if cfg.disableFencing {
		for _, p := range h.primaries {
			logger.UnfenceForTest(p)
		}
	}
	h.primaryNodes = append([]*lbrm.SimNode{tb.PrimaryNode}, tb.ReplicaNodes...)
	h.stoppables = append(h.stoppables, tb.Sender, tb.Primary)
	for _, r := range tb.Replicas {
		h.stoppables = append(h.stoppables, r)
	}
	for _, ts := range tb.Sites {
		h.stoppables = append(h.stoppables, ts.Secondary)
		for _, r := range ts.Receivers {
			h.stoppables = append(h.stoppables, r)
		}
	}
	for _, ev := range boot {
		h.tap(ev)
	}
	tb.Net.SetTap(h.tap)

	clk := tb.Net.Clock()
	h.start = clk.Now()
	for _, f := range schedule {
		f := f
		clk.AfterFunc(f.At, func() { h.applyFault(f) })
		h.faultWindows = append(h.faultWindows, timeWindow{
			from: h.start.Add(f.At), to: h.start.Add(f.At + f.Dur)})
		if f.Kind == "partition-source" {
			h.excuseFrom = h.start.Add(f.At)
			h.excuseTo = h.start.Add(f.At + f.Dur + fenceGrace)
		}
	}
	h.startHealth()
	h.startMonitor()
	h.startFlightSampler()

	// Traffic phase: steady low-rate data through the whole fault window.
	for t := time.Duration(0); t < cfg.Duration; t += cfg.SendEvery {
		seq, err := tb.Send([]byte("chaos-payload"))
		if err != nil {
			return nil, err
		}
		h.res.LastSeq = seq
		tb.Run(cfg.SendEvery)
	}

	// Convergence phase: every fault has healed (buildSchedule guarantees
	// At+Dur < Duration); poll until the invariant targets are met.
	healAt := clk.Now()
	const poll = 100 * time.Millisecond
	converged := false
	for el := time.Duration(0); el < cfg.ConvergeWithin; el += poll {
		tb.Run(poll)
		if h.converged() {
			converged = true
			h.res.ConvergeTook = clk.Now().Sub(healAt)
			break
		}
	}
	if !converged {
		h.violate("convergence", h.lagReport())
	} else {
		// Quiesce: after convergence, recovery traffic must dry up. Cold
		// restarted servers may still be draining a terminating fetch
		// schedule (bounded by MaxRetries), so allow a few windows for the
		// tail — but a leaked retry loop or synchronized retry storm never
		// produces a silent window.
		before := h.nackCount()
		quiet := false
		for i := 0; i < 6 && !quiet; i++ {
			tb.Run(cfg.QuiesceWindow)
			after := h.nackCount()
			quiet = after == before
			before = after
		}
		if !quiet {
			h.violate("quiesce", fmt.Sprintf("NACK traffic still flowing %v after convergence",
				6*cfg.QuiesceWindow))
		}
	}

	h.finishHealth()
	h.checkFinalInvariants()

	// Shutdown: stop every handler ever created and drain. Anything still
	// pending after the drain re-armed itself past shutdown — a leak. The
	// monitor is stopped first so its last armed tick fires into a no-op
	// instead of re-arming forever.
	h.monitorStop = true
	for _, s := range h.stoppables {
		s.Stop()
	}
	tb.Run(30 * time.Second)
	if n := clk.Len(); n != 0 {
		h.violate("timer-leak", fmt.Sprintf("%d events still pending after shutdown drain", n))
	}

	h.res.TraceHash = h.hash
	h.res.NodeTx = make(map[string][]TrafficCounters, len(h.nodeName))
	for i, name := range h.nodeName {
		h.res.NodeTx[name] = append([]TrafficCounters(nil), h.upTx[i]...)
	}
	h.res.Failovers = h.tb.Sender.Stats().Failovers
	h.res.PrimaryEpoch = h.tb.Sender.PrimaryEpoch()
	h.res.StaleSourceAcks = h.tb.Sender.Stats().StaleSourceAcks
	for _, p := range h.primaries {
		h.res.Promotions += p.Stats().Promotions
		h.res.BackfillSkipped += p.Stats().BackfillSkipped
	}
	snaps := make([]obs.Snapshot, len(h.nodeSink))
	for i, s := range h.nodeSink {
		snaps[i] = s.Registry().Snapshot()
	}
	// The stitched chains' latency breakdowns (flight.* counters and
	// histograms, folded in checkFinalInvariants) join the fleet view,
	// as do the health engine's gauges and alert counters.
	snaps = append(snaps, h.flightReg.Snapshot(), h.healthSink.Registry().Snapshot())
	h.res.Metrics = obs.Merge(snaps...)
	// Close the fleet timeline with a final sample carrying the complete
	// merged view — the JSONL flight log is self-contained: periodic
	// samples plus the end-of-run flight.* chain summary.
	h.res.Flight = append(h.res.Flight, obs.FlightSample{
		At: clk.Now().UnixNano(), Metrics: h.res.Metrics,
	})
	h.res.SenderTrace = h.tb.SenderCfg.Obs.Ring().Snapshot()
	return h.res, nil
}

// startMonitor arms the continuous un-fenced-primary check: every
// monitorEvery of virtual time, at most one live acting primary may exist
// outside its excusal window.
func (h *harness) startMonitor() {
	clk := h.tb.Net.Clock()
	var tick func()
	tick = func() {
		if h.monitorStop {
			return
		}
		h.checkUnfenced(clk.Now())
		clk.AfterFunc(monitorEvery, tick)
	}
	clk.AfterFunc(monitorEvery, tick)
}

// startFlightSampler arms the fleet timeline: every flightSampleEvery of
// virtual time, one merged metrics snapshot of every node sink is appended
// to the run's flight log. Always on — the sampler is part of the harness's
// contract, not an option.
func (h *harness) startFlightSampler() {
	clk := h.tb.Net.Clock()
	var tick func()
	tick = func() {
		if h.monitorStop {
			return
		}
		// Health first, so the flight sample carries this tick's fresh
		// health.* gauges rather than the previous tick's.
		h.sampleHealth(clk.Now().UnixNano())
		snaps := make([]obs.Snapshot, 0, len(h.nodeSink)+1)
		for _, s := range h.nodeSink {
			snaps = append(snaps, s.Registry().Snapshot())
		}
		snaps = append(snaps, h.healthSink.Registry().Snapshot())
		h.res.Flight = append(h.res.Flight, obs.FlightSample{
			At: clk.Now().UnixNano(), Metrics: obs.Merge(snaps...),
		})
		clk.AfterFunc(flightSampleEvery, tick)
	}
	clk.AfterFunc(flightSampleEvery, tick)
}

// checkUnfenced enforces "at most one un-fenced acting primary at every
// virtual instant". The original primary is excused while a source-segment
// partition isolates it — it cannot have heard the new epoch — and for
// fenceGrace after the heal, by which time a heartbeat carrying the new
// epoch must have demoted it.
func (h *harness) checkUnfenced(now time.Time) {
	acting := 0
	for i, node := range h.primaryNodes {
		if node.Crashed() || h.primaries[i].IsReplica() {
			continue
		}
		if i == 0 && !h.excuseFrom.IsZero() &&
			!now.Before(h.excuseFrom) && now.Before(h.excuseTo) {
			continue
		}
		acting++
	}
	if acting > 1 && !h.unfencedHit {
		h.unfencedHit = true
		h.violate("unfenced-primary", fmt.Sprintf(
			"%d un-fenced acting primaries at t=%v", acting, now.Sub(h.start)))
	}
}

// inFaultWindow reports whether t falls inside any scheduled fault window.
func (h *harness) inFaultWindow(t time.Time) bool {
	for _, w := range h.faultWindows {
		if !t.Before(w.from) && t.Before(w.to) {
			return true
		}
	}
	return false
}

func (h *harness) violate(name, detail string) {
	h.res.Violations = append(h.res.Violations, Violation{Name: name, Detail: detail})
}

// buildSchedule derives the fault plan purely from the seed. The fault rng
// is separate from the network's, so the schedule is a function of the
// config alone.
func buildSchedule(cfg Config) []Fault {
	rng := rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 0x7F4A7C15))
	if cfg.HealthFault != "" {
		return healthSchedule(cfg, rng)
	}
	if cfg.Quorum > 0 {
		return quorumSchedule(cfg, rng)
	}
	if cfg.Regions > 0 {
		return hierarchySchedule(cfg, rng)
	}
	var kinds []string
	if !cfg.DisableCrashes {
		kinds = append(kinds, "crash-receiver", "crash-secondary")
		if cfg.Replicas > 0 {
			kinds = append(kinds, "crash-replica")
		}
	}
	if !cfg.DisablePartitions {
		kinds = append(kinds, "partition")
	}
	if !cfg.DisableLinkChaos {
		kinds = append(kinds, "flaky-link")
	}
	var out []Fault
	used := make(map[string]bool)
	target := func(f Fault) string {
		// Partition and flaky-link contend for the same tail links: treat
		// them as one target class per site so heals cannot clobber each
		// other's loss models.
		if f.Kind == "partition" || f.Kind == "flaky-link" {
			return fmt.Sprintf("link/%d", f.Site)
		}
		return fmt.Sprintf("%s/%d/%d", f.Kind, f.Site, f.Idx)
	}
	draw := func() (Fault, bool) {
		if len(kinds) == 0 {
			return Fault{}, false
		}
		f := Fault{
			Kind: kinds[rng.Intn(len(kinds))],
			Dur:  200*time.Millisecond + time.Duration(rng.Int63n(int64(1300*time.Millisecond))),
			Site: -1, Idx: -1,
		}
		if cfg.JoinWindow {
			// Join-window faults: everything lands before t = Duration/10,
			// while first contact is still being established.
			f.At = time.Duration(rng.Int63n(int64(cfg.Duration / 10)))
		} else {
			f.At = cfg.Duration/10 + time.Duration(rng.Int63n(int64(cfg.Duration*6/10)))
		}
		switch f.Kind {
		case "crash-receiver":
			f.Site = rng.Intn(cfg.Sites)
			f.Idx = rng.Intn(cfg.ReceiversPerSite)
		case "crash-secondary", "partition", "flaky-link":
			f.Site = rng.Intn(cfg.Sites)
		case "crash-replica":
			f.Idx = rng.Intn(cfg.Replicas)
		}
		return f, true
	}
	if cfg.Overlapping {
		// Overlapping windows on one tail circuit: a flaky-link window and
		// a partition window that intersect. Loss models stack (PushLoss
		// overlays), so the partition heal must not clobber the still-open
		// flaky window and vice versa.
		site := rng.Intn(cfg.Sites)
		used[fmt.Sprintf("link/%d", site)] = true
		out = append(out,
			Fault{Kind: "flaky-link", At: cfg.Duration / 4,
				Dur: 1500 * time.Millisecond, Site: site, Idx: -1},
			Fault{Kind: "partition", At: cfg.Duration/4 + 700*time.Millisecond,
				Dur: 1300 * time.Millisecond, Site: site, Idx: -1},
		)
	}
	// One fault per target keeps heals unambiguous, which also bounds the
	// schedule by the number of distinct targets: stop once draws keep
	// landing on used targets (narrow configs can exhaust them).
	for misses := 0; len(out) < cfg.Faults && misses < 64; {
		f, ok := draw()
		if !ok {
			break
		}
		if used[target(f)] {
			misses++
			continue
		}
		used[target(f)] = true
		out = append(out, f)
	}
	if cfg.CrashPrimary {
		out = append(out, Fault{
			Kind: "crash-primary",
			At:   cfg.Duration * 2 / 5,
			Dur:  1500 * time.Millisecond,
			Site: -1, Idx: -1,
		})
	}
	if cfg.SourcePartition {
		// Deterministic start (traffic established, room to heal and
		// reconverge); seed-drawn duration and isolation mode.
		out = append(out, Fault{
			Kind: "partition-source",
			At:   cfg.Duration * 2 / 5,
			Dur:  2*time.Second + time.Duration(rng.Int63n(int64(500*time.Millisecond))),
			Site: -1, Idx: rng.Intn(3),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// applyFault injects one fault and arms its heal.
func (h *harness) applyFault(f Fault) {
	clk := h.tb.Net.Clock()
	switch f.Kind {
	case "crash-receiver":
		node := h.tb.Sites[f.Site].ReceiverNodes[f.Idx]
		// Bank the dying incarnation's NACK count before it is replaced:
		// the nack-budget invariant sums over all incarnations.
		h.deadNacks[f.Site] += h.receivers[f.Site][f.Idx].Stats().NacksToPrimary
		// The shared flight ring now spans incarnations: duplicate
		// terminals are legitimate, so only the relaxed check applies.
		h.rcvRestarted[f.Site][f.Idx] = true
		h.crash(node)
		clk.AfterFunc(f.Dur, func() {
			rcv := lbrm.NewReceiver(h.tb.Sites[f.Site].ReceiverCfgs[f.Idx])
			h.receivers[f.Site][f.Idx] = rcv
			h.stoppables = append(h.stoppables, rcv)
			node.Restart(rcv)
		})
	case "crash-secondary":
		node := h.tb.Sites[f.Site].SecondaryNode
		h.deadNacks[f.Site] += h.secondaries[f.Site].Stats().NacksToPrimary
		h.crash(node)
		clk.AfterFunc(f.Dur, func() {
			sec := lbrm.NewSecondaryLogger(h.tb.Sites[f.Site].SecondaryCfg)
			h.secondaries[f.Site] = sec
			h.stoppables = append(h.stoppables, sec)
			node.Restart(sec)
		})
	case "crash-replica":
		node := h.tb.ReplicaNodes[f.Idx]
		h.crash(node)
		clk.AfterFunc(f.Dur, func() {
			rep := h.newPrimary(h.tb.ReplicaCfgs[f.Idx])
			h.primaries[1+f.Idx] = rep
			h.stoppables = append(h.stoppables, rep)
			node.Restart(rep)
		})
	case "crash-primary":
		node := h.tb.PrimaryNode
		h.primaryCrashAt = clk.Now()
		h.crash(node)
		clk.AfterFunc(f.Dur, func() {
			// A rebooted primary lost everything, including the knowledge
			// that it was primary: it comes back as a cold replica (the
			// sender has failed over — or will — to a live replica).
			rcfg := h.tb.PrimaryCfg
			rcfg.Replica = true
			rcfg.Replicas = nil
			rcfg.Peers = append([]lbrm.Addr(nil), h.tb.PrimaryCfg.Replicas...)
			rep := h.newPrimary(rcfg)
			h.primaries[0] = rep
			h.stoppables = append(h.stoppables, rep)
			node.Restart(rep)
		})
	case "partition":
		// Overlay, not SetLoss: fault windows may overlap on one tail
		// circuit (Overlapping schedules), and each heal must remove only
		// its own contribution.
		site := h.tb.Sites[f.Site].Site
		gate := &lbrm.Gate{Down: true}
		healUp := site.TailUp().PushLoss(gate)
		healDown := site.TailDown().PushLoss(gate)
		clk.AfterFunc(f.Dur, func() { healUp(); healDown() })
	case "crying-baby":
		// The §6 crying baby: one receiver's own drop cable turns lossy
		// while the rest of the fleet stays clean — it keeps missing data
		// (and losing repairs) and keeps demanding recovery from its site
		// secondary for the whole window.
		node := h.tb.Sites[f.Site].ReceiverNodes[f.Idx]
		heal := node.DownLink().PushLoss(lbrm.Bernoulli{P: 0.5})
		clk.AfterFunc(f.Dur, heal)
	case "regional-loss":
		// A sustained regional loss episode: the site's shared tail-down
		// drops a fraction of everything, so every receiver and the site
		// secondary keep missing data together and repair demand persists
		// beyond the site.
		site := h.tb.Sites[f.Site].Site
		heal := site.TailDown().PushLoss(lbrm.Bernoulli{P: 0.4})
		clk.AfterFunc(f.Dur, heal)
	case "flaky-link":
		site := h.tb.Sites[f.Site].Site
		heal := site.TailDown().PushLoss(lbrm.Compose(
			lbrm.Bernoulli{P: 0.3},
			lbrm.Reorder{P: 0.25, MaxDelay: 20 * time.Millisecond},
			lbrm.Duplicate{P: 0.1, Lag: 2 * time.Millisecond},
		))
		clk.AfterFunc(f.Dur, heal)
	case "sync-blackout":
		// Every sync-class packet leaving the acting primary's host —
		// LogSync records, ring tokens, ring installs — vanishes, while
		// data, acks and NACK service keep flowing: the primary keeps
		// logging (and, in quorum mode, parking acks) packets it can no
		// longer replicate. Overlay so the heal composes with anything
		// else on the link.
		heal := h.tb.PrimaryNode.UpLink().PushLoss(classDrop{cls: wire.ClassSync, p: 1})
		clk.AfterFunc(f.Dur, heal)
	case "ring-partition":
		// One ring replica's host is cut off both ways: its predecessor's
		// tokens die, the ring stalls, and the primary must fall back to
		// direct fan-in and repair a ring around the dead hop.
		heal := h.tb.ReplicaNodes[f.Idx].Isolate(true, true)
		clk.AfterFunc(f.Dur, heal)
	case "crash-regional":
		node := h.tb.Regions[f.Idx].LoggerNode
		h.crash(node)
		clk.AfterFunc(f.Dur, func() {
			// The restarted regional announces itself with the next tree
			// epoch so its TypeReparent out-fences the boot announcement
			// and pulls re-homed children back (DESIGN.md §13).
			rcfg := h.tb.Regions[f.Idx].LoggerCfg
			rcfg.TreeEpoch++
			reg := lbrm.NewSecondaryLogger(rcfg)
			h.regionals[f.Idx] = reg
			h.stoppables = append(h.stoppables, reg)
			node.Restart(reg)
		})
	case "partition-regional":
		// The regional keeps its state and timers but hears and reaches
		// nothing: children must degrade to the sibling region, never the
		// primary.
		heal := h.tb.Regions[f.Idx].LoggerNode.Isolate(true, true)
		clk.AfterFunc(f.Dur, heal)
	case "down-outage":
		// Gate only the site's tail-down: the site misses data together,
		// but its upward control path stays open, so recovery pressure
		// lands on whatever parent tier is (or is not) alive.
		heal := h.tb.Sites[f.Site].Site.TailDown().PushLoss(&lbrm.Gate{Down: true})
		clk.AfterFunc(f.Dur, heal)
	case "partition-source":
		// The acting primary's host is cut off — deaf, mute, or both — with
		// all its state and timers intact. It receives nothing (deaf) or
		// its acks vanish (mute), so the sender's idle detection fails over
		// to a replica and mints the next epoch; after the heal the stale
		// primary's authority must be fenced everywhere until a heartbeat
		// carrying the new epoch demotes it.
		h.primaryCrashAt = clk.Now()
		up := f.Idx == 0 || f.Idx == 1
		down := f.Idx == 0 || f.Idx == 2
		heal := h.tb.PrimaryNode.Isolate(up, down)
		clk.AfterFunc(f.Dur, heal)
	}
}

// newPrimary builds a restarted logging server's next incarnation.
func (h *harness) newPrimary(cfg lbrm.PrimaryConfig) *lbrm.PrimaryLogger {
	p := lbrm.NewPrimaryLogger(cfg)
	if h.cfg.disableFencing {
		logger.UnfenceForTest(p)
	}
	return p
}

// crash takes a node down and forgets its acknowledgement and epoch
// watermarks (a new incarnation legitimately restarts both).
func (h *harness) crash(node *lbrm.SimNode) {
	node.Crash()
	id := int(node.ID())
	for k := range h.lastAck {
		if k.node == id {
			delete(h.lastAck, k)
		}
	}
	delete(h.lastEpoch, id)
}

// tap observes every link traversal: it folds the event into the trace
// hash, tracks ack monotonicity, and timestamps the failover Promote.
func (h *harness) tap(ev lbrm.TapEvent) {
	f := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		f.Write(buf[:])
	}
	put(h.hash)
	put(uint64(ev.Time.UnixNano()))
	put(uint64(int64(ev.From)))
	put(uint64(int64(ev.To)))
	put(uint64(ev.Size))
	if ev.Dropped {
		put(1)
	} else {
		put(0)
	}
	h.hash = f.Sum64()

	var p wire.Packet
	if p.Unmarshal(ev.Data) != nil {
		return
	}
	// Recovery-bandwidth accounting counts attempted traversals, drops
	// included: a NACK that dies in a partition still spent the attempt,
	// and the budget identity below must hold regardless of loss.
	if h.tailLinks[ev.Link] {
		cls := trafficClass(p.Type)
		bump(h.res.TailTraffic, cls, ev.Size)
		if h.inFaultWindow(ev.Time) {
			bump(h.res.TailTrafficFault, cls, ev.Size)
		}
	}
	if site, ok := h.tailUpSite[ev.Link]; ok && p.Type == wire.TypeNack {
		h.nackUp[site]++
	}
	// Tier-skip invariant (hierarchy runs): every NACK reaching the
	// primary's host must be stamped with the primary's global tier —
	// a lower stamp means some live tier was skipped on the way up.
	if h.priDown != nil && ev.Link == h.priDown && p.Type == wire.TypeNack {
		h.priNacks++
		if want := treeDepth; p.Tier() != want && !h.tierSkipHit {
			h.tierSkipHit = true
			h.violate("tier-skip", fmt.Sprintf(
				"NACK at the primary stamped tier %d, want %d (escalation skipped a tier)",
				p.Tier(), want))
		}
	}
	// Per-handler transmit ledger: every send a handler makes crosses its
	// host up-link exactly once (attempted traversals, drops included),
	// keyed by the same wire.TrafficClass the component metrics use.
	if idx, ok := h.upNode[ev.Link]; ok {
		c := &h.upTx[idx][wire.ClassOf(p.Type)]
		c.Packets++
		c.Bytes += uint64(ev.Size)
	}
	// Flight-recorder wire truth. First NACK departure per sequence on each
	// receiver's host up-link (attempted traversals, drops included — a NACK
	// that dies downstream was still issued at this instant), and every
	// repair-classified arrival heading for its down-link (delivery happens
	// at tap time + link delay; host links are jitter-free).
	if ref, ok := h.rcvUp[ev.Link]; ok && p.Type == wire.TypeNack {
		m := h.nackFirst[ref.site][ref.idx]
		for _, rg := range p.Ranges {
			for seq := rg.From; seq <= rg.To; seq++ {
				if _, seen := m[seq]; !seen {
					m[seq] = ev.Time
				}
			}
		}
	}
	if ref, ok := h.rcvDown[ev.Link]; ok && !ev.Dropped {
		if path := wire.ClassifyRecovery(p.Type, p.Flags); path != wire.PathNone {
			m := h.repairs[ref.site][ref.idx]
			m[p.Seq] = append(m[p.Seq], tapRepair{at: ev.Time.Add(ev.Link.Delay()), path: path})
		}
	}
	if ev.Dropped {
		return
	}
	// Epoch monotonicity per observer: within one incarnation, no node's
	// authority-bearing traffic may regress to a lower primary epoch.
	var pe uint32
	hasEpoch := false
	switch p.Type {
	case wire.TypeHeartbeat:
		pe, hasEpoch = p.PrimaryEpoch, true
	case wire.TypeSourceAck, wire.TypeLogSync, wire.TypeLogSyncAck,
		wire.TypePromote, wire.TypePrimaryRedirect, wire.TypeLogStateReply,
		wire.TypeQuorumAck, wire.TypeRingConfig:
		pe, hasEpoch = p.Epoch, true
	}
	// Invariant 11's durability watermark: the highest sequence any
	// primary ever source-acked on the wire (non-dropped — a lost ack
	// never released anything at the sender).
	if p.Type == wire.TypeSourceAck && p.Seq > h.maxSourceAck {
		h.maxSourceAck = p.Seq
	}
	if hasEpoch {
		id := int(ev.From)
		if last, ok := h.lastEpoch[id]; ok && pe < last {
			if !h.epochHit {
				h.epochHit = true
				h.violate("epoch-monotonicity", fmt.Sprintf(
					"node %d %s epoch regressed %d -> %d", ev.From, p.Type, last, pe))
			}
		} else {
			h.lastEpoch[id] = pe
		}
	}
	switch p.Type {
	case wire.TypeSourceAck, wire.TypeLogSyncAck:
		k := ackKey{node: int(ev.From), typ: p.Type, src: p.Source, grp: p.Group}
		if last, ok := h.lastAck[k]; ok && p.Seq < last {
			h.violate("ack-monotonicity", fmt.Sprintf(
				"node %d %s regressed %d -> %d", ev.From, p.Type, last, p.Seq))
		} else {
			h.lastAck[k] = p.Seq
		}
	case wire.TypePromote:
		if h.promoteAt.IsZero() && !h.primaryCrashAt.IsZero() {
			h.promoteAt = ev.Time
		}
	}
}

// converged reports whether every live receiver has resolved everything up
// to the last sent sequence number and the sender's buffer has drained.
func (h *harness) converged() bool {
	if h.tb.Sender.Retained() != 0 {
		return false
	}
	for s, ts := range h.tb.Sites {
		for i, node := range ts.ReceiverNodes {
			if node.Crashed() {
				continue
			}
			if h.receivers[s][i].Contiguous(h.key) < h.res.LastSeq {
				return false
			}
		}
	}
	return true
}

// lagReport names the convergence stragglers.
func (h *harness) lagReport() string {
	var lags []string
	if n := h.tb.Sender.Retained(); n != 0 {
		lags = append(lags, fmt.Sprintf("sender retains %d", n))
	}
	for s, ts := range h.tb.Sites {
		for i, node := range ts.ReceiverNodes {
			if node.Crashed() {
				continue
			}
			if got := h.receivers[s][i].Contiguous(h.key); got < h.res.LastSeq {
				lags = append(lags, fmt.Sprintf("site%d/rcv%d at %d/%d", s+1, i, got, h.res.LastSeq))
			}
		}
	}
	return strings.Join(lags, "; ")
}

// nackCount sums NACK traffic across the deployment.
func (h *harness) nackCount() uint64 {
	var n uint64
	for s := range h.receivers {
		for _, r := range h.receivers[s] {
			n += r.Stats().NacksSent
		}
		if sec := h.secondaries[s]; sec != nil {
			n += sec.Stats().NacksToPrimary
		}
	}
	for _, reg := range h.regionals {
		n += reg.Stats().NacksToPrimary
	}
	for _, p := range h.primaries {
		n += p.Stats().BackfillNacks
	}
	return n
}

// checkFinalInvariants runs the post-convergence structural checks.
func (h *harness) checkFinalInvariants() {
	h.checkHealthInvariants()
	// Exactly one acting primary among live logging servers.
	acting := 0
	for i, node := range h.primaryNodes {
		if node.Crashed() {
			continue
		}
		if !h.primaries[i].IsReplica() {
			acting++
		}
	}
	if acting != 1 {
		h.violate("single-primary", fmt.Sprintf("%d acting primaries among live loggers", acting))
	}
	// NACK budget (§2.2.2): every NACK traversal attempted on a receiver
	// site's tail-up circuit must be one the site's secondary or receivers
	// counted as sent to the primary — summed over every incarnation.
	// Recovery load on the backbone is exactly the per-site aggregate.
	for s := range h.tb.Sites {
		want := h.deadNacks[s]
		if sec := h.secondaries[s]; sec != nil {
			want += sec.Stats().NacksToPrimary
		}
		for _, r := range h.receivers[s] {
			want += r.Stats().NacksToPrimary
		}
		if got := h.nackUp[s]; got != want {
			h.violate("nack-budget", fmt.Sprintf(
				"site%d tail-up saw %d NACK traversals but components account for %d",
				s+1, got, want))
		}
	}
	// Metrics-vs-tap reconciliation (DESIGN.md §9): each handler counted
	// its own transmissions per traffic class at the send site; the wire
	// tap independently counted attempted traversals of that handler's
	// host up-link. The two ledgers were kept by different code on
	// opposite sides of the transport boundary and must agree exactly —
	// across every incarnation, since restarts reuse the retained sink.
	for idx, sink := range h.nodeSink {
		snap := sink.Registry().Snapshot()
		for cls := wire.TrafficClass(0); cls < wire.NumTrafficClasses; cls++ {
			base := h.nodePfx[idx] + ".tx." + cls.String()
			wantP := snap.Counters[base+".pkts"]
			wantB := snap.Counters[base+".bytes"]
			got := h.upTx[idx][cls]
			if got.Packets != wantP || got.Bytes != wantB {
				h.violate("metrics-reconcile", fmt.Sprintf(
					"%s %s: tap saw %d pkts / %d B on the up-link, metrics report %d pkts / %d B",
					h.nodeName[idx], cls, got.Packets, got.Bytes, wantP, wantB))
			}
		}
	}
	// The §2.2.2 NACK budget settled against the metrics registry instead
	// of handler stats: sinks persist across incarnations, so unlike the
	// stats-based check above no dead-incarnation banking is needed.
	for s := range h.tb.Sites {
		want := h.siteSecSink[s].Counter("secondary.nacks_to_primary").Value()
		for _, sink := range h.siteRcvSink[s] {
			want += sink.Counter("recv.nacks_to_primary").Value()
		}
		if got := h.nackUp[s]; got != want {
			h.violate("nack-budget-metrics", fmt.Sprintf(
				"site%d tail-up saw %d NACK traversals but metrics account for %d",
				s+1, got, want))
		}
	}
	// Epoch gauges vs the tap's per-node epoch watermark: components set
	// their epoch gauge before sending anything stamped with that epoch,
	// and the watermark is per incarnation (cleared on crash), so no
	// node's gauge may end below the highest epoch the tap saw it stamp.
	// The sender never crashes and must agree with its own API exactly.
	epochGauge := map[string]string{
		"sender":    "sender.primary_epoch",
		"primary":   "primary.epoch",
		"secondary": "secondary.primary_epoch",
		"recv":      "recv.primary_epoch",
	}
	for idx, sink := range h.nodeSink {
		last, seen := h.lastEpoch[h.nodeID[idx]]
		if !seen {
			continue
		}
		if g := sink.Gauge(epochGauge[h.nodePfx[idx]]).Value(); g < int64(last) {
			h.violate("epoch-gauge", fmt.Sprintf(
				"%s epoch gauge %d below tap watermark %d", h.nodeName[idx], g, last))
		}
	}
	if g := h.tb.SenderCfg.Obs.Gauge("sender.primary_epoch").Value(); g != int64(h.tb.Sender.PrimaryEpoch()) {
		h.violate("epoch-gauge", fmt.Sprintf(
			"sender epoch gauge %d != PrimaryEpoch() %d", g, h.tb.Sender.PrimaryEpoch()))
	}
	h.checkFlightRecorder()
	h.checkQuorumInvariants()
	h.checkHierarchyInvariants()
	// Failover latency bound: detection needs backlog (≤ SendEvery old)
	// aged past FailoverTimeout, observed by a jittered check firing at
	// ≤ 1.25×FailoverTimeout intervals; then one probe round (FailoverWait)
	// plus source-site RTT slack.
	if !h.primaryCrashAt.IsZero() {
		bound := h.cfg.FailoverTimeout*5/2 + h.cfg.FailoverWait + h.cfg.SendEvery + 250*time.Millisecond
		if h.promoteAt.IsZero() {
			h.violate("failover", "primary crashed but no Promote was ever sent")
		} else if lat := h.promoteAt.Sub(h.primaryCrashAt); lat > bound {
			h.violate("failover", fmt.Sprintf("crash->promote took %v, bound %v", lat, bound))
		} else {
			h.res.FailoverLatency = lat
		}
	}
}

// absDur returns |ns| as a duration.
func absDur(ns int64) time.Duration {
	if ns < 0 {
		ns = -ns
	}
	return time.Duration(ns)
}

// checkFlightRecorder is the flight recorder's headline invariant
// (DESIGN.md §10): every packet the harness observed a receiver recover
// must have a complete, causally ordered recovery chain stitched from the
// flight rings, and the chain's hop timestamps must reconcile with the wire
// tap's independent measurements within flightTick.
//
// For each receiver, its sink's flight ring (detections, NACKs, terminals)
// is stitched against every server-side ring — sender, primary, replicas
// and all secondaries (a remote site's re-multicast can repair a local
// loss). Strict receivers get the full check; receivers that crashed share
// one ring across incarnations, where duplicate terminals and re-detections
// are legitimate, so only chain existence and a deliver event are required.
// The stitched latency breakdowns are folded into flightReg for the fleet
// metrics view.
func (h *harness) checkFlightRecorder() {
	h.flightReg = obs.NewRegistry()
	servers := [][]obs.Event{
		h.tb.SenderCfg.Obs.FlightRing().Snapshot(),
		h.tb.PrimaryCfg.Obs.FlightRing().Snapshot(),
	}
	for i := range h.tb.ReplicaCfgs {
		servers = append(servers, h.tb.ReplicaCfgs[i].Obs.FlightRing().Snapshot())
	}
	for _, sink := range h.siteSecSink {
		servers = append(servers, sink.FlightRing().Snapshot())
	}
	// A broken recorder would trip once per recovered packet; cap the
	// detailed reports and summarize the rest.
	tripped := 0
	flag := func(name, detail string) {
		if tripped < 3 {
			h.violate(name, detail)
		}
		tripped++
	}
	for s := range h.siteRcvSink {
		for j, sink := range h.siteRcvSink[s] {
			chains := obs.StitchFlights(sink.FlightRing().Snapshot(), servers...)
			obs.FoldFlightChains(h.flightReg, chains)
			h.res.FlightChains += uint64(len(chains))
			for _, c := range chains {
				if c.Complete() {
					h.res.FlightComplete++
				}
			}
			relaxed := h.rcvRestarted[s][j]
			who := fmt.Sprintf("site%d/rcv%d", s+1, j)
			for seq := range h.recovered[s][j] {
				c := chains[seq]
				if c == nil {
					flag("flight-chain", fmt.Sprintf(
						"%s recovered seq %d with no flight chain", who, seq))
					continue
				}
				delivered := false
				for _, ev := range c.Events {
					if ev.Kind == obs.KindDeliver {
						delivered = true
						break
					}
				}
				if !delivered {
					flag("flight-chain", fmt.Sprintf(
						"%s recovered seq %d: chain has no deliver event", who, seq))
					continue
				}
				if relaxed {
					continue
				}
				if c.Terminal != obs.KindDeliver || !c.Complete() {
					flag("flight-chain", fmt.Sprintf(
						"%s seq %d: incomplete chain (terminal=%v terminals=%d detectAt=%d nackAt=%d serveAt=%d path=%v)",
						who, seq, c.Terminal, c.TerminalCount, c.DetectAt, c.NackAt, c.ServeAt, c.Path))
					continue
				}
				if !c.CausallyOrdered() {
					flag("flight-causal", fmt.Sprintf(
						"%s seq %d: hops out of causal order (detect=%d nack=%d serve=%d deliver=%d)",
						who, seq, c.DetectAt, c.NackAt, c.ServeAt, c.TerminalAt))
					continue
				}
				// Delivery reconciliation: the receiver delivers at the first
				// repair arrival the tap saw, and the delivering repair's
				// wire-classified path must match the chain's.
				arrivals := h.repairs[s][j][seq]
				if len(arrivals) == 0 {
					flag("flight-reconcile", fmt.Sprintf(
						"%s seq %d: chain delivers but the tap saw no repair arrive", who, seq))
					continue
				}
				first := arrivals[0]
				pathMatch := false
				for _, a := range arrivals {
					if a.at.Before(first.at) {
						first = a
					}
					if a.path == c.Path && absDur(c.TerminalAt-a.at.UnixNano()) <= flightTick {
						pathMatch = true
					}
				}
				if d := absDur(c.TerminalAt - first.at.UnixNano()); d > flightTick {
					flag("flight-reconcile", fmt.Sprintf(
						"%s seq %d: deliver at %d vs tap first repair arrival %d (off by %v, tolerance %v)",
						who, seq, c.TerminalAt, first.at.UnixNano(), d, flightTick))
				} else if !pathMatch {
					flag("flight-reconcile", fmt.Sprintf(
						"%s seq %d: chain path %v has no matching tap arrival near the delivery",
						who, seq, c.Path))
				}
				if !c.Detected() {
					continue
				}
				// The deliver event's own latency measurement must equal the
				// chain's detect→deliver span.
				if d := absDur(int64(c.DeliverLatency) - (c.TerminalAt - c.DetectAt)); d > flightTick {
					flag("flight-latency", fmt.Sprintf(
						"%s seq %d: recorded latency %v vs chain span %v",
						who, seq, c.DeliverLatency, time.Duration(c.TerminalAt-c.DetectAt)))
				}
				// NACK reconciliation: the chain's first NACK is the first
				// NACK the tap saw leave this receiver covering the seq.
				if c.NackAt != 0 {
					tapN, ok := h.nackFirst[s][j][seq]
					if !ok {
						flag("flight-reconcile", fmt.Sprintf(
							"%s seq %d: chain records a NACK the tap never saw leave", who, seq))
					} else if d := absDur(c.NackAt - tapN.UnixNano()); d > flightTick {
						flag("flight-reconcile", fmt.Sprintf(
							"%s seq %d: NACK at %d vs tap %d (off by %v)",
							who, seq, c.NackAt, tapN.UnixNano(), d))
					}
				}
			}
			// The converse: a strict receiver's deliver terminal must be a
			// recovery the harness itself observed — the recorder cannot
			// invent recoveries either.
			if !relaxed {
				for seq, c := range chains {
					if c.Terminal == obs.KindDeliver && !h.recovered[s][j][seq] {
						flag("flight-chain", fmt.Sprintf(
							"%s seq %d: deliver terminal with no harness-observed recovery", who, seq))
					}
				}
			}
		}
	}
	if tripped > 3 {
		h.violate("flight", fmt.Sprintf(
			"%d flight-recorder violations in total (first 3 detailed)", tripped))
	}
}
