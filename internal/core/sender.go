// Package core implements the LBRM protocol endpoints: the multicast
// Sender (§2: sequence numbers, MaxIT/variable heartbeats, retention until
// the primary logger acknowledges, statistical acknowledgement §2.3,
// primary failover §2.2.3) and the Receiver (loss detection by sequence
// gap or idle timeout, hierarchical recovery through the logging service,
// freshness tracking).
//
// Both are transport.Handlers: reactive state machines that run unchanged
// over the deterministic simulator and real UDP multicast.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lbrm/internal/estimator"
	"lbrm/internal/heartbeat"
	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// Durability selects when the sender may release a retained packet (§2.2.3).
type Durability int

const (
	// ReleaseOnPrimaryAck frees a packet once the primary logger has it
	// (the paper's base behaviour: "the sender's application may continue
	// processing").
	ReleaseOnPrimaryAck Durability = iota
	// ReleaseOnReplicaAck additionally waits for the replicated-logger
	// sequence number, guaranteeing the log survives a primary failure.
	ReleaseOnReplicaAck
)

// hotlistPruneFloor is the decayed-activity score below which a tracked
// acker is evicted from the faulty-acker hotlist at each selection round:
// well under one activation, far below any faulty threshold.
const hotlistPruneFloor = 0.05

// StatAckConfig tunes statistical acknowledgement (§2.3). The zero value
// disables it.
type StatAckConfig struct {
	// Enabled turns the mechanism on.
	Enabled bool
	// K is the desired positive acknowledgements per packet (5–20).
	K int
	// EpochInterval rotates Designated Ackers this often.
	EpochInterval time.Duration
	// EpochPackets rotates after this many data packets, whichever of the
	// two triggers first (0 disables the packet trigger).
	EpochPackets int
	// RTT configures the t_wait estimator.
	RTT estimator.RTTConfig
	// GroupSize configures the N_sl estimator.
	GroupSize estimator.GroupSizeConfig
	// Probe configures the bootstrap population probing; probing is
	// skipped when GroupSize.Initial is set.
	Probe estimator.ProbePlan
	// ProbeInterval spaces bootstrap probe rounds.
	ProbeInterval time.Duration
	// RemcastSiteThreshold: a missing ACK triggers an immediate multicast
	// retransmission when the missing ackers represent strictly more than
	// this many sites (N_sl/k sites per acker). With 25 sites per acker
	// one missing ACK warrants a multicast; with 1 site per acker it does
	// not (§2.3.2's 500-site vs 20-site examples).
	RemcastSiteThreshold float64
	// NackRemcastThreshold: distinct NACK requesters for one packet that
	// make the source re-multicast instead of relying on unicast repair.
	NackRemcastThreshold int
	// HotlistHalfLife and HotlistThreshold configure faulty-acker
	// detection; zero values take defaults.
	HotlistHalfLife  time.Duration
	HotlistThreshold float64
	// FlowControl enables the paper's §5 future-work idea: "use
	// statistical acknowledgement information to slow down the sender
	// during periods of high loss." The sender keeps an EWMA of the
	// missing-ACK fraction and advises a pacing delay through
	// Sender.SendDelay; the application applies it.
	FlowControl bool
	// FlowLowWater / FlowHighWater bracket the loss estimate: no delay
	// below the low water mark, maximum delay at or above the high water
	// mark (defaults 0.05 and 0.5).
	FlowLowWater, FlowHighWater float64
	// FlowMaxDelay is the pacing delay at the high water mark (default
	// 4×t_wait at the time of the query).
	FlowMaxDelay time.Duration
}

// SenderConfig configures an LBRM source.
type SenderConfig struct {
	// Source identifies this stream.
	Source wire.SourceID
	// Group is the multicast group data is published to.
	Group wire.GroupID
	// Heartbeat parametrizes the variable heartbeat (§2.1);
	// heartbeat.Fixed(h) yields the fixed-rate baseline.
	Heartbeat heartbeat.Params
	// Primary is the primary logging server. Nil runs the basic
	// receiver-reliable protocol with no logging service (the sender then
	// serves NACKs from its retention buffer only).
	Primary transport.Addr
	// Replicas lists the primary's replicas, for failover.
	Replicas []transport.Addr
	// Durability selects the retention release rule.
	Durability Durability
	// RetainLimit caps retained unreleased packets; Send fails beyond it.
	RetainLimit int
	// StatAck tunes statistical acknowledgement.
	StatAck StatAckConfig
	// InlineHeartbeatMax: payloads up to this size ride inside heartbeat
	// packets (0 disables; paper §7 extension).
	InlineHeartbeatMax int
	// RetransChannel enables the paper's §7 retransmission-channel
	// extension: every data packet is replayed on this separate multicast
	// group with exponentially backed-off spacing, so receivers can
	// recover losses by subscribing instead of sending NACKs. 0 disables.
	RetransChannel wire.GroupID
	// RetransRepeats is how many times each packet is replayed (default 3).
	RetransRepeats int
	// RetransStart is the delay to the first replay; the i-th replay
	// happens RetransStart·2^i after the original transmission (default
	// Heartbeat.HMin).
	RetransStart time.Duration
	// FailoverTimeout: with unacknowledged retained packets and no
	// SourceAck for this long, the sender starts primary failover
	// (0 disables failover).
	FailoverTimeout time.Duration
	// FailoverWait is how long to collect LogStateReplies before
	// promoting the best replica.
	FailoverWait time.Duration
	// Obs receives metrics and trace events (nil = uninstrumented; the send
	// path allocates nothing either way: DESIGN.md §6, TestSenderZeroAlloc).
	Obs *obs.Sink
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.Heartbeat == (heartbeat.Params{}) {
		c.Heartbeat = heartbeat.DefaultParams
	}
	if c.RetainLimit == 0 {
		c.RetainLimit = 4096
	}
	if c.StatAck.Enabled {
		if c.StatAck.K == 0 {
			c.StatAck.K = 20
		}
		if c.StatAck.EpochInterval == 0 {
			c.StatAck.EpochInterval = 30 * time.Second
		}
		if c.StatAck.ProbeInterval == 0 {
			c.StatAck.ProbeInterval = 500 * time.Millisecond
		}
		if c.StatAck.RemcastSiteThreshold == 0 {
			c.StatAck.RemcastSiteThreshold = 1
		}
		if c.StatAck.NackRemcastThreshold == 0 {
			c.StatAck.NackRemcastThreshold = 3
		}
		if c.StatAck.HotlistHalfLife == 0 {
			c.StatAck.HotlistHalfLife = 4 * c.StatAck.EpochInterval
		}
		if c.StatAck.HotlistThreshold == 0 {
			c.StatAck.HotlistThreshold = 3
		}
		if c.StatAck.GroupSize.K == 0 {
			c.StatAck.GroupSize.K = c.StatAck.K
		}
		if c.StatAck.FlowControl {
			if c.StatAck.FlowLowWater == 0 {
				c.StatAck.FlowLowWater = 0.05
			}
			if c.StatAck.FlowHighWater == 0 {
				c.StatAck.FlowHighWater = 0.5
			}
		}
	}
	if c.RetransChannel != 0 {
		if c.RetransRepeats == 0 {
			c.RetransRepeats = 3
		}
		if c.RetransStart == 0 {
			c.RetransStart = c.Heartbeat.HMin
		}
	}
	if c.FailoverWait == 0 {
		c.FailoverWait = time.Second
	}
	return c
}

// SenderStats counts a sender's protocol activity. A field tagged obs is
// also the storage of that registry counter (obs.Registry.AttachStats) and
// is written with atomic adds only; untagged fields are Stats()-only.
type SenderStats struct {
	DataSent          uint64 `obs:"sender.data_sent"`
	HeartbeatsSent    uint64 `obs:"sender.heartbeats"`
	InlineHeartbeats  uint64 `obs:"sender.inline_heartbeats"`
	AcksReceived      uint64 `obs:"sender.acks"`
	AcksIgnoredFaulty uint64 `obs:"sender.acks_ignored_faulty"`
	StatRemulticasts  uint64 `obs:"sender.stat_remulticasts"` // re-multicasts triggered by missing ACKs
	NackRemulticasts  uint64 `obs:"sender.nack_remulticasts"` // re-multicasts triggered by NACK volume
	RetransUnicast    uint64 `obs:"sender.retrans_unicast"`
	NacksReceived     uint64 `obs:"sender.nacks_received"`
	SourceAcks        uint64 `obs:"sender.source_acks"`
	EpochsStarted     uint64 `obs:"sender.epochs_started"`
	AckerResponses    uint64
	ProbesSent        uint64
	ProbeResponses    uint64
	Failovers         uint64 `obs:"sender.failovers"`
	RedirectsServed   uint64
	StaleSourceAcks   uint64 `obs:"sender.fence.stale_source_acks"` // acks fenced for carrying an old primary epoch
	ChannelReplays    uint64 `obs:"sender.channel_replays"`         // retransmission-channel replays (§7)
	SendErrors        uint64 `obs:"sender.send_errors"`
	Malformed         uint64
}

// ErrRetainLimit is returned by Send when the retention buffer is full
// (the logging service is not keeping up or is unreachable).
var ErrRetainLimit = errors.New("core: retention buffer full")

// ErrNotStarted is returned by Send before Start.
var ErrNotStarted = errors.New("core: sender not started")

// Sender is an LBRM multicast source.
type Sender struct {
	stats SenderStats // first: its words need 64-bit alignment on 32-bit targets
	cfg   SenderConfig
	env   transport.Env

	seq      uint64
	schedule *heartbeat.Schedule
	hbTimer  vtime.Timer

	// Retention until the logging service acknowledges, which is exactly
	// the seqs in (released, seq]: a power-of-two ring of payload buffers
	// indexed by seq&(len-1), each reused in place. Release only moves the
	// cursor, so the latest seq's slot outlives it (inline heartbeats).
	slots        [][]byte
	primaryAcked uint64 // cumulative primary logger seq
	replicaAcked uint64 // cumulative replicated logger seq
	released     uint64 // highest seq ever released from retention
	lastAckAt    time.Time
	// retainSince is when retention last became nonempty. The failover
	// liveness check measures ack-idleness from whichever of lastAckAt /
	// retainSince is later: at send intervals longer than FailoverTimeout
	// the previous ack is legitimately a full interval old the moment a
	// new packet enters retention, and the primary deserves a fresh
	// FailoverTimeout to acknowledge it.
	retainSince time.Time

	primary transport.Addr
	// primaryEpoch is the fencing token (§2.2.3): minted (incremented) at
	// every completed failover, stamped on every authority-bearing message,
	// and piggybacked on heartbeats so stale primaries self-demote.
	primaryEpoch uint32
	failover     *failoverState
	// foProbes counts consecutive failover probe rounds with no replica
	// reply, driving the re-probe backoff.
	foProbes int

	// Statistical acknowledgement.
	epoch        uint32
	ackers       map[transport.Addr]bool // current epoch's Designated Ackers
	nextAckers   map[transport.Addr]bool // collecting for the next epoch
	epochPackets int
	selecting    bool
	rtt          *estimator.RTT
	groupSize    *estimator.GroupSize
	prober       *estimator.Prober
	probeID      uint32
	probeCount   int
	hotlist      *estimator.Hotlist[transport.Addr]
	pending      map[uint64]*pendingAck
	// lossEWMA tracks the missing-ACK fraction for flow control (§5).
	lossEWMA float64

	// NACK-demand re-multicast bookkeeping.
	nackDemand map[uint64]*nackWindow

	stopped bool
	// scratch is the reusable wire-encoding buffer: both transport
	// bindings copy the datagram before returning, so reuse is safe.
	scratch []byte
	// dec recycles NACK range storage across decodes.
	dec wire.Decoder
	// mx caches the preregistered metric handles (all nil-safe).
	mx senderMetrics
}

// senderMetrics holds the sender's preregistered observability handles.
type senderMetrics struct {
	sink         *obs.Sink
	tx           *obs.ClassCounters
	primaryEpoch *obs.Gauge
	statEpoch    *obs.Gauge
	twaitNS      *obs.Gauge
	nsl          *obs.Gauge
	packPPM      *obs.Gauge
	ackerCount   *obs.Gauge
	hbInterval   *obs.Histogram
	// statDelay measures send→re-multicast delay when a missing
	// statistical ACK triggers the §2.3.2 immediate retransmission.
	statDelay *obs.Histogram
}

// heartbeatBoundsMS buckets the variable-heartbeat interval (§2.1): the
// distribution should show mass near HMin right after data and near HMax
// during idle, which is the paper's bandwidth argument in histogram form.
var heartbeatBoundsMS = []uint64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

func newSenderMetrics(sink *obs.Sink) senderMetrics {
	return senderMetrics{
		sink:         sink,
		tx:           sink.Classes("sender.tx", wire.TrafficClassNames()),
		primaryEpoch: sink.Gauge("sender.primary_epoch"),
		statEpoch:    sink.Gauge("sender.stat_epoch"),
		twaitNS:      sink.Gauge("sender.twait_ns"),
		nsl:          sink.Gauge("sender.nsl"),
		packPPM:      sink.Gauge("sender.pack_ppm"),
		ackerCount:   sink.Gauge("sender.ackers"),
		hbInterval:   sink.Histogram("sender.heartbeat_interval_ms", heartbeatBoundsMS),
		statDelay:    sink.Histogram("sender.recovery.multicast_retrans.delay_ms", recoveryBoundsMS),
	}
}

// syncEstimates publishes the current estimator state as gauges.
func (s *Sender) syncEstimates() {
	if s.rtt != nil {
		s.mx.twaitNS.Set(int64(s.rtt.TWait()))
	}
	if s.groupSize != nil {
		s.mx.nsl.Set(int64(s.groupSize.Estimate() + 0.5))
		s.mx.packPPM.Set(int64(s.groupSize.PAck() * 1e6))
	}
	s.mx.ackerCount.Set(int64(len(s.ackers)))
}

// now returns the environment clock in nanoseconds (0 before Start).
func (s *Sender) now() int64 {
	if s.env == nil {
		return 0
	}
	return s.env.Now().UnixNano()
}

type pendingAck struct {
	seq    uint64
	sentAt time.Time
	epoch  uint32
	// payload is held until the t_wait deadline so a re-multicast is
	// possible even after the primary's ack released the retention copy.
	payload  []byte
	expected int
	acks     map[transport.Addr]bool
	timer    vtime.Timer
}

type nackWindow struct {
	requesters  map[transport.Addr]bool
	remulticast bool
}

// NewSender returns a sender for cfg.
func NewSender(cfg SenderConfig) (*Sender, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Heartbeat.Validate(); err != nil {
		return nil, err
	}
	s := &Sender{
		cfg:        cfg,
		pending:    make(map[uint64]*pendingAck),
		nackDemand: make(map[uint64]*nackWindow),
		primary:    cfg.Primary,
		ackers:     make(map[transport.Addr]bool),
		mx:         newSenderMetrics(cfg.Obs),
	}
	if cfg.Primary != nil {
		// Epoch 1 is the configured primary's authority; every failover
		// mints the next one.
		s.primaryEpoch = 1
	}
	s.mx.primaryEpoch.Set(int64(s.primaryEpoch))
	var err error
	if s.schedule, err = heartbeat.NewSchedule(cfg.Heartbeat); err != nil {
		return nil, err
	}
	if cfg.StatAck.Enabled {
		if s.rtt, err = estimator.NewRTT(cfg.StatAck.RTT); err != nil {
			return nil, err
		}
		if s.groupSize, err = estimator.NewGroupSize(cfg.StatAck.GroupSize); err != nil {
			return nil, err
		}
		s.hotlist = estimator.NewHotlist[transport.Addr](
			cfg.StatAck.HotlistHalfLife, cfg.StatAck.HotlistThreshold)
	}
	cfg.Obs.Registry().AttachStats(&s.stats)
	return s, nil
}

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Stop halts the sender: heartbeats, epoch rotation, replays and failover
// cease; Send returns ErrNotStarted afterwards. Safe to call once.
func (s *Sender) Stop() {
	s.stopped = true
	s.cfg.Obs.Registry().DetachStats(&s.stats)
	if s.hbTimer != nil {
		s.hbTimer.Stop()
	}
}

// after schedules fn guarded by the stopped flag, so a stopped sender's
// timer chains die out.
func (s *Sender) after(d time.Duration, fn func()) vtime.Timer {
	return s.env.AfterFunc(d, func() {
		if !s.stopped {
			fn()
		}
	})
}

// LastSeq returns the last data sequence number sent.
func (s *Sender) LastSeq() uint64 { return s.seq }

// Retained returns the number of unreleased packets.
func (s *Sender) Retained() int { return int(s.seq - s.released) }

// slotOf returns the index of seq's retention slot.
func (s *Sender) slotOf(seq uint64) int { return int(seq & uint64(len(s.slots)-1)) }

// Epoch returns the current statistical-ack epoch (0 before the first).
func (s *Sender) Epoch() uint32 { return s.epoch }

// PrimaryEpoch returns the current primary-authority epoch: 0 with no
// logging service, 1 for the configured primary, +1 per completed failover.
func (s *Sender) PrimaryEpoch() uint32 { return s.primaryEpoch }

// AckerCount returns the number of Designated Ackers in the current epoch.
func (s *Sender) AckerCount() int { return len(s.ackers) }

// GroupSizeEstimate returns the current N_sl estimate (0 when unknown or
// statistical acking is off).
func (s *Sender) GroupSizeEstimate() float64 {
	if s.groupSize == nil {
		return 0
	}
	return s.groupSize.Estimate()
}

// TWait returns the current t_wait (0 when statistical acking is off).
func (s *Sender) TWait() time.Duration {
	if s.rtt == nil {
		return 0
	}
	return s.rtt.TWait()
}

// LossEstimate returns the EWMA of the missing-ACK fraction observed
// through statistical acknowledgement (0 when disabled or lossless).
func (s *Sender) LossEstimate() float64 { return s.lossEWMA }

// SendDelay advises how long the application should pace before its next
// Send, per the §5 flow-control extension: zero below the low water mark,
// scaling linearly to FlowMaxDelay at the high water mark. It is advisory;
// Send itself never blocks.
func (s *Sender) SendDelay() time.Duration {
	if !s.cfg.StatAck.FlowControl {
		return 0
	}
	lo, hi := s.cfg.StatAck.FlowLowWater, s.cfg.StatAck.FlowHighWater
	if s.lossEWMA <= lo {
		return 0
	}
	frac := (s.lossEWMA - lo) / (hi - lo)
	if frac > 1 {
		frac = 1
	}
	maxDelay := s.cfg.StatAck.FlowMaxDelay
	if maxDelay == 0 {
		maxDelay = 4 * s.rtt.TWait()
	}
	return time.Duration(frac * float64(maxDelay))
}

// observeLoss folds one packet's missing-ACK fraction into the flow
// control estimate.
func (s *Sender) observeLoss(sample float64) {
	const alpha = 1.0 / 8
	s.lossEWMA = alpha*sample + (1-alpha)*s.lossEWMA
}

// Start implements transport.Handler.
func (s *Sender) Start(env transport.Env) {
	s.env = env
	s.lastAckAt = env.Now()
	// MaxIT guarantee: heartbeats flow even before the first data packet.
	s.armHeartbeat(s.schedule.OnData())
	if s.cfg.StatAck.Enabled {
		if s.cfg.StatAck.GroupSize.Initial > 0 {
			s.startEpoch()
		} else {
			s.prober = estimator.NewProber(s.cfg.StatAck.Probe)
			s.probeRound()
		}
	}
	if s.cfg.FailoverTimeout > 0 && s.primary != nil {
		s.armFailoverCheck(0)
	}
}

// Send multicasts one application payload, assigning it the next sequence
// number. It returns the sequence number. The payload is copied before
// Send returns, so the caller may reuse its buffer at once.
func (s *Sender) Send(payload []byte) (uint64, error) {
	if s.env == nil || s.stopped {
		return 0, ErrNotStarted
	}
	if len(payload) > wire.MaxPayloadLen {
		return 0, fmt.Errorf("core: payload %d exceeds max %d", len(payload), wire.MaxPayloadLen)
	}
	n := s.Retained()
	if n >= s.cfg.RetainLimit {
		atomic.AddUint64(&s.stats.SendErrors, 1)
		return 0, ErrRetainLimit
	}
	if n == 0 {
		s.retainSince = s.env.Now()
	}
	if n == len(s.slots) {
		// Every slot is unreleased: double, each buffer to its seq's new index.
		old := s.slots
		s.slots = make([][]byte, max(2*len(old), 16))
		for q := s.released + 1; q <= s.seq; q++ {
			s.slots[s.slotOf(q)] = old[q&uint64(len(old)-1)]
		}
	}
	s.seq++
	seq := s.seq
	p := wire.Packet{
		Type: wire.TypeData, Source: s.cfg.Source, Group: s.cfg.Group,
		Seq: seq, Epoch: s.epoch, Payload: payload,
	}
	s.multicast(&p)
	atomic.AddUint64(&s.stats.DataSent, 1)
	i := s.slotOf(seq)
	s.slots[i] = append(s.slots[i][:0], payload...)
	s.epochPackets++
	if s.cfg.RetransChannel != 0 {
		s.scheduleChannelReplays(&p)
	}
	s.armHeartbeat(s.schedule.OnData())
	if s.cfg.StatAck.Enabled && s.epoch > 0 {
		s.trackAcks(&p)
		if s.cfg.StatAck.EpochPackets > 0 && s.epochPackets >= s.cfg.StatAck.EpochPackets && !s.selecting {
			s.beginSelection()
		}
	}
	return seq, nil
}

// Recv implements transport.Handler.
func (s *Sender) Recv(from transport.Addr, data []byte) {
	var p wire.Packet
	// The shared Decoder recycles NACK range storage across packets:
	// p.Ranges is dead once this call returns, so the alias is safe.
	if err := s.dec.Unmarshal(data, &p); err != nil {
		s.stats.Malformed++
		return
	}
	if p.Source != s.cfg.Source || p.Group != s.cfg.Group {
		return
	}
	switch p.Type {
	case wire.TypeSourceAck:
		s.onSourceAck(&p)
	case wire.TypeAck:
		s.onAck(from, &p)
	case wire.TypeAckerResponse:
		s.onAckerResponse(from, &p)
	case wire.TypeSizeProbeResponse:
		s.onProbeResponse(&p)
	case wire.TypeNack:
		s.onNack(from, &p)
	case wire.TypePrimaryQuery:
		s.onPrimaryQuery(from)
	case wire.TypeLogStateReply:
		s.onLogStateReply(from, &p)
	}
}

// --- heartbeats ---

// armHeartbeat (re)schedules the next heartbeat. The timer handle is
// allocated once and Reset thereafter: this runs after every data packet,
// so Stop+AfterFunc here would allocate a timer plus closure per send.
func (s *Sender) armHeartbeat(d time.Duration) {
	if s.hbTimer != nil {
		s.hbTimer.Reset(d)
		return
	}
	s.hbTimer = s.after(d, s.fireHeartbeat)
}

func (s *Sender) fireHeartbeat() {
	p := wire.Packet{
		Type: wire.TypeHeartbeat, Source: s.cfg.Source, Group: s.cfg.Group,
		Seq: s.seq, Epoch: s.epoch,
	}
	next := s.schedule.OnHeartbeat()
	p.HeartbeatIdx = s.schedule.Index()
	p.PrimaryEpoch = s.primaryEpoch
	if s.cfg.InlineHeartbeatMax > 0 && s.seq > 0 {
		if last := s.slots[s.slotOf(s.seq)]; len(last) <= s.cfg.InlineHeartbeatMax {
			p.Flags |= wire.FlagInlineData
			p.Payload = last
			atomic.AddUint64(&s.stats.InlineHeartbeats, 1)
		}
	}
	s.multicast(&p)
	atomic.AddUint64(&s.stats.HeartbeatsSent, 1)
	s.mx.hbInterval.Observe(uint64(next / time.Millisecond))
	s.hbTimer.Reset(next)
}

// --- retention & primary ack ---

func (s *Sender) onSourceAck(p *wire.Packet) {
	if p.Epoch < s.primaryEpoch {
		// Fenced: a demoted-but-unaware primary is still acking. Its acks
		// must neither move watermarks nor refresh lastAckAt — a zombie
		// refreshing the idle clock would mask the very failure that minted
		// the newer epoch.
		atomic.AddUint64(&s.stats.StaleSourceAcks, 1)
		s.mx.sink.Emit(s.now(), obs.KindFenceHit, uint64(s.primaryEpoch), uint64(p.Epoch), uint64(p.Type))
		return
	}
	if p.Seq > s.seq || p.ReplicaSeq > s.seq {
		// Never sent, so never logged: it would release past seq for good.
		s.stats.Malformed++
		return
	}
	atomic.AddUint64(&s.stats.SourceAcks, 1)
	s.lastAckAt = s.env.Now()
	if p.Seq > s.primaryAcked {
		s.primaryAcked = p.Seq
	}
	if p.ReplicaSeq > s.replicaAcked {
		s.replicaAcked = p.ReplicaSeq
	}
	release := s.primaryAcked
	if s.cfg.Durability == ReleaseOnReplicaAck && s.replicaAcked < release {
		release = s.replicaAcked
	}
	if release > s.released {
		s.released = release
		// Release progress resets the failover backoff. A bare ack without
		// progress deliberately does not: a just-promoted cold replica acks
		// immediately (liveness) but may be backfilling for a while, and
		// each fruitless failover round must keep backing off or the sender
		// re-elects every FailoverTimeout while the log recovers.
		s.foProbes = 0
	}
}

// onNack serves retransmission requests from the retention buffer (the
// primary recovering its own losses, or receivers in the no-logger basic
// mode). Heavy distinct demand for one packet triggers a re-multicast.
func (s *Sender) onNack(from transport.Addr, p *wire.Packet) {
	atomic.AddUint64(&s.stats.NacksReceived, 1)
	const budget = 1024
	n := 0
	for _, r := range p.Ranges {
		for seq := r.From; seq <= r.To && n < budget; seq++ {
			n++
			s.serveNack(from, seq)
		}
	}
}

func (s *Sender) serveNack(from transport.Addr, seq uint64) {
	if seq <= s.released || seq > s.seq {
		return // released (the logging service has it) or never sent
	}
	out := wire.Packet{
		Type: wire.TypeRetrans, Flags: wire.FlagRetransmission,
		Source: s.cfg.Source, Group: s.cfg.Group, Seq: seq, Payload: s.slots[s.slotOf(seq)],
	}
	if s.cfg.StatAck.Enabled {
		w := s.nackDemand[seq]
		if w == nil {
			w = &nackWindow{requesters: make(map[transport.Addr]bool)}
			s.nackDemand[seq] = w
			s.after(time.Second, func() { delete(s.nackDemand, seq) })
		}
		w.requesters[from] = true
		if w.remulticast {
			return
		}
		if len(w.requesters) >= s.cfg.StatAck.NackRemcastThreshold {
			w.remulticast = true
			s.multicast(&out)
			atomic.AddUint64(&s.stats.NackRemulticasts, 1)
			s.mx.sink.EmitFlight(s.now(), obs.KindServe, seq, uint64(wire.PathSourceMulticast), 1)
			return
		}
	}
	s.send(from, &out)
	atomic.AddUint64(&s.stats.RetransUnicast, 1)
	s.mx.sink.EmitFlight(s.now(), obs.KindServe, seq, uint64(wire.PathSourceMulticast), 0)
}

// scheduleChannelReplays arms the §7 retransmission-channel replays for a
// just-sent data packet: the i-th replay goes out RetransStart·2^i after
// the original transmission, on the dedicated channel. The wire header
// keeps the data group so receivers file it under the right stream.
func (s *Sender) scheduleChannelReplays(p *wire.Packet) {
	replay := wire.Packet{
		Type: wire.TypeRetrans, Flags: wire.FlagRetransmission,
		Source: p.Source, Group: p.Group, Seq: p.Seq, Epoch: p.Epoch,
		Payload: p.Payload, // marshalled below, before this call returns
	}
	// The encoded buffer outlives this call (the replay timers hold it), so
	// it cannot use the shared scratch: marshal once into a fresh buffer
	// instead of copying the payload and then marshalling the copy.
	buf, err := replay.AppendMarshal(nil)
	if err != nil {
		atomic.AddUint64(&s.stats.SendErrors, 1)
		return
	}
	delay := s.cfg.RetransStart
	for i := 0; i < s.cfg.RetransRepeats; i++ {
		s.after(delay, func() {
			s.mx.tx.Record(int(wire.ClassRetrans), len(buf))
			if err := s.env.Multicast(s.cfg.RetransChannel, transport.TTLGlobal, buf); err != nil {
				atomic.AddUint64(&s.stats.SendErrors, 1)
				return
			}
			atomic.AddUint64(&s.stats.ChannelReplays, 1)
			s.mx.sink.EmitFlight(s.now(), obs.KindServe, replay.Seq, uint64(wire.PathSourceMulticast), 1)
		})
		delay *= 2
	}
}

// --- statistical acknowledgement ---

// probeRound runs one Bolot bootstrap round (§2.3.3).
func (s *Sender) probeRound() {
	pAck, ok := s.prober.NextProbe()
	if !ok {
		est := s.prober.Estimate()
		s.groupSize.Seed(est)
		s.startEpoch()
		return
	}
	s.probeID++
	s.probeCount = 0
	probe := wire.Packet{
		Type: wire.TypeSizeProbe, Source: s.cfg.Source, Group: s.cfg.Group,
		ProbeID: s.probeID, PAck: pAck,
	}
	s.multicast(&probe)
	s.stats.ProbesSent++
	s.after(s.cfg.StatAck.ProbeInterval, func() {
		s.prober.ObserveRound(s.probeCount)
		s.probeRound()
	})
}

func (s *Sender) onProbeResponse(p *wire.Packet) {
	if p.ProbeID == s.probeID {
		s.probeCount++
		s.stats.ProbeResponses++
	}
}

// startEpoch announces epoch+1 via an Acker Selection Packet and collects
// responses for a selection window before switching (§2.3.1, Figure 8).
func (s *Sender) startEpoch() {
	s.beginSelection()
}

func (s *Sender) beginSelection() {
	if s.selecting {
		return
	}
	s.selecting = true
	// One selection round per epoch is the natural cadence for bounding the
	// faulty-acker hotlist: entries that decayed to noise are evicted, so
	// the map tracks recently-active ackers, not every addr ever heard.
	s.hotlist.Prune(s.env.Now(), hotlistPruneFloor)
	next := s.epoch + 1
	pAck := s.groupSize.PAck()
	sel := wire.Packet{
		Type: wire.TypeAckerSelect, Source: s.cfg.Source, Group: s.cfg.Group,
		Epoch: next, PAck: pAck, K: uint16(s.cfg.StatAck.K),
	}
	s.nextAckers = make(map[transport.Addr]bool)
	s.multicast(&sel)
	s.mx.sink.Emit(s.now(), obs.KindDASet,
		uint64(next), uint64(pAck*1e6), uint64(s.groupSize.Estimate()+0.5))
	wait := 2 * s.rtt.TWait()
	s.after(wait, func() { s.finishSelection(next, pAck) })
}

func (s *Sender) finishSelection(next uint32, pAck float64) {
	if len(s.nextAckers) == 0 {
		// Nobody volunteered (loggers not up yet, or the selection packet
		// was lost): retry soon without burning the epoch number.
		s.nextAckers = nil
		s.selecting = false
		retry := 2 * s.rtt.TWait()
		if retry < 500*time.Millisecond {
			retry = 500 * time.Millisecond
		}
		s.after(retry, func() {
			if !s.selecting {
				s.beginSelection()
			}
		})
		return
	}
	// Responses to the selection double as a population probe.
	s.groupSize.Observe(len(s.nextAckers), pAck)
	s.epoch = next
	s.epochPackets = 0
	s.ackers = s.nextAckers
	s.nextAckers = nil
	s.selecting = false
	atomic.AddUint64(&s.stats.EpochsStarted, 1)
	s.mx.statEpoch.Set(int64(s.epoch))
	s.syncEstimates()
	s.after(s.cfg.StatAck.EpochInterval, func() {
		if !s.selecting {
			s.beginSelection()
		}
	})
}

func (s *Sender) onAckerResponse(from transport.Addr, p *wire.Packet) {
	if s.nextAckers == nil || p.Epoch != s.epoch+1 {
		return
	}
	now := s.env.Now()
	s.hotlist.Record(from, now)
	if s.hotlist.Faulty(from, now) {
		atomic.AddUint64(&s.stats.AcksIgnoredFaulty, 1)
		return
	}
	s.nextAckers[from] = true
	s.stats.AckerResponses++
}

// trackAcks sets up the per-packet t_wait deadline for a just-sent data
// packet.
func (s *Sender) trackAcks(p *wire.Packet) {
	if len(s.ackers) == 0 {
		return
	}
	pa := &pendingAck{
		seq: p.Seq, sentAt: s.env.Now(), epoch: p.Epoch,
		payload:  append([]byte(nil), p.Payload...),
		expected: len(s.ackers),
		acks:     make(map[transport.Addr]bool),
	}
	s.pending[p.Seq] = pa
	pa.timer = s.after(s.rtt.TWait(), func() { s.ackDeadline(pa) })
}

func (s *Sender) onAck(from transport.Addr, p *wire.Packet) {
	pa := s.pending[p.Seq]
	if pa == nil {
		return
	}
	if !s.ackers[from] {
		atomic.AddUint64(&s.stats.AcksIgnoredFaulty, 1)
		return // not a Designated Acker for this epoch (or faulty)
	}
	if pa.acks[from] {
		return
	}
	pa.acks[from] = true
	atomic.AddUint64(&s.stats.AcksReceived, 1)
	if len(pa.acks) >= pa.expected {
		// All expected ACKs in: sample the RTT and retire the packet.
		s.rtt.Observe(s.env.Now().Sub(pa.sentAt))
		s.observeLoss(0)
		s.syncEstimates()
		pa.timer.Stop()
		delete(s.pending, pa.seq)
	}
}

// ackDeadline fires t_wait after a data packet: missing ACKs mean the
// packet plausibly missed whole sites, so re-multicast it immediately when
// the missing ackers represent enough sites (§2.3.2).
func (s *Sender) ackDeadline(pa *pendingAck) {
	delete(s.pending, pa.seq)
	missing := pa.expected - len(pa.acks)
	if missing <= 0 {
		return
	}
	// Cap the RTT sample: the last ACK "arrived" at 2×t_wait.
	s.rtt.Observe(s.rtt.Cap())
	s.observeLoss(float64(missing) / float64(pa.expected))
	s.syncEstimates()
	sitesPerAcker := 1.0
	if est := s.groupSize.Estimate(); est > 0 && pa.expected > 0 {
		sitesPerAcker = est / float64(pa.expected)
	}
	s.mx.sink.EmitFlight(s.now(), obs.KindStatMiss, pa.seq, uint64(missing), uint64(pa.expected))
	if float64(missing)*sitesPerAcker > s.cfg.StatAck.RemcastSiteThreshold {
		out := wire.Packet{
			Type: wire.TypeRetrans, Flags: wire.FlagRetransmission,
			Source: s.cfg.Source, Group: s.cfg.Group, Seq: pa.seq,
			Epoch: pa.epoch, Payload: pa.payload,
		}
		s.multicast(&out)
		atomic.AddUint64(&s.stats.StatRemulticasts, 1)
		s.mx.sink.EmitFlight(s.now(), obs.KindServe, pa.seq, uint64(wire.PathSourceMulticast), 1)
		s.mx.statDelay.Observe(uint64(s.env.Now().Sub(pa.sentAt) / time.Millisecond))
	}
}

// --- failover (§2.2.3) ---

// armFailoverCheck schedules the next liveness check, jittered ±25% so a
// fleet of senders that lost the same primary does not probe in lockstep.
// attempt > 0 applies exponential backoff (used for fruitless re-probes
// when no replica answers either — the whole logging service is likely
// partitioned away, so hammering it at a fixed period helps nobody).
func (s *Sender) armFailoverCheck(attempt int) {
	d := transport.Backoff{Base: s.cfg.FailoverTimeout}.Interval(attempt, s.env.Rand())
	s.after(d, s.failoverCheck)
}

func (s *Sender) failoverCheck() {
	if s.failover != nil {
		return
	}
	ackRef := s.lastAckAt
	if s.retainSince.After(ackRef) {
		ackRef = s.retainSince
	}
	idle := s.env.Now().Sub(ackRef)
	if s.Retained() > 0 && idle >= s.cfg.FailoverTimeout && len(s.cfg.Replicas) > 0 {
		s.beginFailover()
	} else {
		s.armFailoverCheck(s.foProbes)
	}
}

type failoverState struct {
	best     transport.Addr
	bestSeq  uint64
	haveAny  bool
	finished bool
}

func (s *Sender) beginFailover() {
	fo := &failoverState{}
	s.failover = fo
	s.mx.sink.Emit(s.now(), obs.KindFailoverStart, uint64(s.primaryEpoch), uint64(s.foProbes), 0)
	q := wire.Packet{
		Type: wire.TypeLogStateQuery, Source: s.cfg.Source, Group: s.cfg.Group,
	}
	for _, r := range s.cfg.Replicas {
		s.send(r, &q)
	}
	s.after(s.cfg.FailoverWait, func() { s.completeFailover(fo) })
}

func (s *Sender) onLogStateReply(from transport.Addr, p *wire.Packet) {
	fo := s.failover
	if fo == nil || fo.finished {
		return
	}
	if !fo.haveAny || p.Seq > fo.bestSeq {
		fo.haveAny = true
		fo.best = from
		fo.bestSeq = p.Seq
	}
}

func (s *Sender) completeFailover(fo *failoverState) {
	fo.finished = true
	s.failover = nil
	if !fo.haveAny {
		// No replica answered; retry later, backing off per fruitless round.
		s.foProbes++
		s.armFailoverCheck(s.foProbes)
		return
	}
	// Count the election as a probe round too: until the new primary's
	// acks actually advance the release watermark, successive failovers
	// back off — re-electing at a fixed period while a cold replica
	// backfills only thrashes the roster.
	s.foProbes++
	atomic.AddUint64(&s.stats.Failovers, 1)
	s.primary = fo.best
	// Mint the next primary epoch: the promotion and redirect below carry
	// it, and from here on acks from any older epoch are fenced.
	s.mx.sink.Emit(s.now(), obs.KindEpochBump, uint64(s.primaryEpoch), uint64(s.primaryEpoch+1), 0)
	s.primaryEpoch++
	s.mx.primaryEpoch.Set(int64(s.primaryEpoch))
	s.mx.sink.Emit(s.now(), obs.KindFailoverDone, uint64(s.primaryEpoch), fo.bestSeq, 0)
	// The winning replica just proved liveness by answering the probe:
	// restart the idle clock, or the next check would still see the dead
	// primary's whole silent window and immediately fail over again.
	s.lastAckAt = s.env.Now()
	// Seq carries the retention release watermark: the new primary must
	// hold everything at or below it (this sender cannot re-supply released
	// packets) and backfills any shortfall from its peer replicas.
	prom := wire.Packet{
		Type: wire.TypePromote, Source: s.cfg.Source, Group: s.cfg.Group,
		Seq: s.released, Epoch: s.primaryEpoch,
	}
	s.send(fo.best, &prom)
	// Bring the new primary up to date from the retention ring, in sequence
	// order: its log advances contiguously (no gap bookkeeping while it
	// catches up) and the wire trace stays a pure function of the seed.
	for seq := max(s.released, fo.bestSeq); seq < s.seq; seq++ { // sends seq+1: bestSeq is off the wire, +1 here could wrap
		r := wire.Packet{
			Type: wire.TypeRetrans, Flags: wire.FlagRetransmission,
			Source: s.cfg.Source, Group: s.cfg.Group, Seq: seq + 1, Payload: s.slots[s.slotOf(seq+1)],
		}
		s.send(fo.best, &r)
	}
	// Tell the group where the log lives now.
	redir := wire.Packet{
		Type: wire.TypePrimaryRedirect, Source: s.cfg.Source, Group: s.cfg.Group,
		Addr: fo.best.String(), Epoch: s.primaryEpoch,
	}
	s.multicast(&redir)
	s.armFailoverCheck(s.foProbes)
}

func (s *Sender) onPrimaryQuery(from transport.Addr) {
	if s.primary == nil {
		return
	}
	redir := wire.Packet{
		Type: wire.TypePrimaryRedirect, Source: s.cfg.Source, Group: s.cfg.Group,
		Addr: s.primary.String(), Epoch: s.primaryEpoch,
	}
	s.send(from, &redir)
	s.stats.RedirectsServed++
}

// --- plumbing ---

func (s *Sender) multicast(p *wire.Packet) {
	buf, err := p.AppendMarshal(s.scratch[:0])
	if err != nil {
		atomic.AddUint64(&s.stats.SendErrors, 1)
		return
	}
	s.scratch = buf
	s.mx.tx.Record(int(wire.ClassOf(p.Type)), len(buf))
	if err := s.env.Multicast(s.cfg.Group, transport.TTLGlobal, buf); err != nil {
		atomic.AddUint64(&s.stats.SendErrors, 1)
	}
}

func (s *Sender) send(to transport.Addr, p *wire.Packet) {
	buf, err := p.AppendMarshal(s.scratch[:0])
	if err != nil {
		atomic.AddUint64(&s.stats.SendErrors, 1)
		return
	}
	s.scratch = buf
	s.mx.tx.Record(int(wire.ClassOf(p.Type)), len(buf))
	if err := s.env.Send(to, buf); err != nil {
		atomic.AddUint64(&s.stats.SendErrors, 1)
	}
}
