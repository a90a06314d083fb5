package logger

import (
	"slices"
	"sync/atomic"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// SecondaryConfig configures a site's secondary logging server.
type SecondaryConfig struct {
	// Group is the multicast group to log.
	Group wire.GroupID
	// Primary is the primary logging server's address. It may be updated
	// at runtime by a TypePrimaryRedirect.
	Primary transport.Addr
	// Retention bounds the local log.
	Retention Retention
	// RespondToAckerSelection enables Designated Acker duty (§2.3). On by
	// default (disable for the pre-statistical-ack baseline).
	DisableAcking bool
	// DisableDiscovery stops the logger answering discovery queries.
	DisableDiscovery bool
	// NackDelay aggregates gap discoveries before one NACK goes to the
	// primary. It also gives a source re-multicast (statistical ack) a
	// chance to repair the loss first: §2.3.2 recommends waiting until
	// t_wait − h_min after the heartbeat that revealed the loss.
	NackDelay time.Duration
	// RequestTimeout is the retry interval for unanswered NACKs to the
	// primary.
	RequestTimeout time.Duration
	// MaxRetries bounds NACK retries per fetch episode.
	MaxRetries int
	// RemcastThreshold is the number of distinct local requesters for the
	// same packet within RemcastWindow that triggers a site-scoped
	// re-multicast instead of unicasts (§2.2.1).
	RemcastThreshold int
	// RemcastWindow is the counting window for RemcastThreshold.
	RemcastWindow time.Duration
	// RecoveryWindow caps how far behind the stream head the logger will
	// backfill (default 4096 sequence numbers); falling further behind
	// skips ahead, like a fresh late join. Bounds state and the work a
	// forged sequence number can cause.
	RecoveryWindow uint64
	// RemcastTTL is the multicast scope for re-multicast repairs
	// (default transport.TTLSite). A logger serving a wider tier — e.g. a
	// region logger in a multi-level hierarchy (§7) — must widen it so its
	// repairs reach its clients.
	RemcastTTL int
	// Tier is this logger's global tier in the logger tree, counted from
	// the leaf: 0 = site secondary (default), 1 = regional, up to the
	// primary at the tree depth. Tier > 0 loggers announce themselves with
	// a TypeReparent on Start so re-homed children can converge back.
	Tier int
	// Parents is the upward escalation chain of intermediate parents:
	// Parents[0] is the immediate parent (tier Tier+1), Parents[1] the
	// next tier up, and so on. Primary is always the final escalation
	// target (appended to the chain unless it is already last). Empty
	// Parents keeps the flat design: every fetch goes to Primary.
	Parents []transport.Addr
	// Siblings are alternate parents at the immediate parent's tier
	// (Parents[0]'s siblings): when the parent stays dead through
	// MaxRetries the logger re-homes to them before escalating a tier.
	Siblings []transport.Addr
	// TreeEpoch is the tree-configuration generation this logger announces
	// with (default 1). A restarted tier node must boot with a higher
	// TreeEpoch than its previous life so children can fence replayed
	// announcements.
	TreeEpoch uint32
	// AnnounceTTL is the multicast scope of TypeReparent announcements
	// (default transport.TTLRegion — an announcement must reach the
	// announcer's children but need not cross the whole fleet).
	AnnounceTTL int
	// MakespanRepair enables makespan-aware repair scheduling: locally
	// served NACKs are batched per requesting child for one NackDelay and
	// released largest-demand-first (see ScheduleRepairs), minimizing
	// fleet-wide recovery makespan when a tier rebuilds after a fault.
	// Off by default: repairs are served FIFO as each NACK arrives.
	MakespanRepair bool
	// DiscoveryJitter is the maximum random delay before answering a
	// discovery query (avoids reply implosion when several loggers hear
	// the same query).
	DiscoveryJitter time.Duration
	// Obs receives metrics and trace events (nil = uninstrumented; the
	// datapath stays zero-allocation either way, see DESIGN.md §9).
	Obs *obs.Sink
}

// withDefaults fills zero fields.
func (c SecondaryConfig) withDefaults() SecondaryConfig {
	if c.NackDelay == 0 {
		c.NackDelay = 20 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 500 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RemcastThreshold == 0 {
		c.RemcastThreshold = 3
	}
	if c.RemcastWindow == 0 {
		c.RemcastWindow = 100 * time.Millisecond
	}
	if c.RemcastTTL == 0 {
		c.RemcastTTL = transport.TTLSite
	}
	if c.RecoveryWindow == 0 {
		c.RecoveryWindow = 4096
	}
	if c.DiscoveryJitter == 0 {
		c.DiscoveryJitter = 10 * time.Millisecond
	}
	if c.Tier < 0 {
		c.Tier = 0
	}
	if c.Tier > wire.MaxTier {
		c.Tier = wire.MaxTier
	}
	if c.TreeEpoch == 0 {
		c.TreeEpoch = 1
	}
	if c.AnnounceTTL == 0 {
		c.AnnounceTTL = transport.TTLRegion
	}
	return c
}

// parentCand is one entry of the logger-wide escalation chain: a fetch
// target and its global tier (stamped on upward NACKs).
type parentCand struct {
	addr transport.Addr
	tier int
}

// candidates builds the escalation chain in re-home order: the immediate
// parent first, then its siblings (same tier), then each higher parent,
// with the primary always last.
func (c SecondaryConfig) candidates() []parentCand {
	var out []parentCand
	if len(c.Parents) > 0 {
		out = append(out, parentCand{c.Parents[0], c.Tier + 1})
		for _, sib := range c.Siblings {
			out = append(out, parentCand{sib, c.Tier + 1})
		}
		for i, p := range c.Parents[1:] {
			out = append(out, parentCand{p, c.Tier + 2 + i})
		}
	}
	if c.Primary != nil && (len(out) == 0 || out[len(out)-1].addr != c.Primary) {
		out = append(out, parentCand{c.Primary, c.Tier + 1 + len(c.Parents)})
	}
	return out
}

// SecondaryStats counts a secondary logger's protocol activity. Fields
// tagged obs are registry counters too (see PrimaryStats).
type SecondaryStats struct {
	PacketsLogged uint64 `obs:"secondary.logged"` // data/retrans stored
	Duplicates    uint64 `obs:"secondary.duplicates"`
	// NacksFromClients counts NACK packets from local receivers: the site's
	// inbound repair demand — the health engine's per-site crying-baby
	// signal (DESIGN.md §15).
	NacksFromClients  uint64 `obs:"secondary.nacks_from_clients"`
	SeqsRequested     uint64 // sequence numbers requested by local receivers
	RetransUnicast    uint64 `obs:"secondary.retrans_unicast"`  // retransmissions served point-to-point
	Remulticasts      uint64 `obs:"secondary.remulticasts"`     // site-scoped multicast repairs
	NacksToPrimary    uint64 `obs:"secondary.nacks_to_primary"` // NACK packets sent up to the primary
	FetchesSatisfied  uint64 // log holes filled by an upstream repair (retrans/LogSync)
	FetchesAbandoned  uint64 `obs:"secondary.fetches_abandoned"`
	AckerSelections   uint64 // epochs this logger volunteered for
	AcksSent          uint64 `obs:"secondary.acks_sent"`
	ProbeResponses    uint64
	DiscoveryReplies  uint64
	RedirectsFollowed uint64
	StaleRedirects    uint64 `obs:"secondary.fence.stale_redirects"` // redirects fenced by the primary epoch
	SkippedAhead      uint64 `obs:"secondary.skipped_ahead"`         // recovery-window skips (fell too far behind)
	Rehomes           uint64 `obs:"secondary.tree.rehomes"`          // parent changes after exhausting retries
	ReparentsFollowed uint64 `obs:"secondary.tree.reparents"`        // TypeReparent announcements adopted
	StaleReparents    uint64 `obs:"secondary.tree.stale_reparents"`  // TypeReparent announcements fenced as stale
	Malformed         uint64
}

// Secondary is a site secondary logging server (§2.2.1): it subscribes to
// the data group, logs every packet, serves local retransmission requests,
// and recovers its own losses from the primary so that only one NACK per
// site crosses the tail circuit.
type Secondary struct {
	stats   SecondaryStats // first: 64-bit alignment of its words
	cfg     SecondaryConfig
	env     transport.Env
	streams map[StreamKey]*secStream
	stopped bool
	// last is a one-entry stream cache: traffic arrives in long runs from
	// the same stream, so most lookups skip the map hash.
	last *secStream
	// scratch is the reusable wire-encoding buffer (bindings copy).
	scratch []byte
	// dec recycles NACK range storage across decodes.
	dec wire.Decoder
	// ackPkt is the reusable Designated-Acker ACK: built in place per data
	// packet so the steady-state ack path performs zero allocations.
	ackPkt wire.Packet
	// rangeScratch/seqScratch/trackScratch back missing()'s working
	// slices between calls; their contents are dead once the NACK is
	// marshalled.
	rangeScratch []wire.SeqRange
	seqScratch   []uint64
	trackScratch []wire.SeqRange
	// waiterPool recycles the per-seq waiter lists of pendingReq.
	waiterPool [][]transport.Addr
	// reqPool recycles reqWindow entries; each keeps its requester map
	// and expiry timer across episodes (the timer is re-armed with Reset,
	// so steady-state request-window churn allocates nothing).
	reqPool []*reqCount
	// Logger-wide tree state: the escalation chain, the current parent
	// slot, the announced tree epoch, the highest primary epoch observed
	// on any stream (fences reparent announcements), and the highest tree
	// epoch adopted per announcer tier.
	cands        []parentCand
	slot         int
	treeEpoch    uint32
	priEpochHigh uint32
	tierEpochs   [wire.MaxTier + 1]uint32
	// repairQ batches locally-served NACK demand per child while
	// MakespanRepair is on; released largest-demand-first on repairTimer.
	repairQ     []RepairBatch
	repairTimer vtime.Timer
	// mx caches the preregistered metric handles (all nil-safe): resolved
	// once at construction so the hot path is atomic adds only.
	mx secondaryMetrics
}

// secondaryMetrics holds the secondary's preregistered observability
// handles. Every field no-ops when the sink is nil.
type secondaryMetrics struct {
	sink         *obs.Sink
	tx           *obs.ClassCounters
	primaryEpoch *obs.Gauge
	parentTier   *obs.Gauge
	nackRanges   *obs.Histogram
}

func newSecondaryMetrics(sink *obs.Sink) secondaryMetrics {
	return secondaryMetrics{
		sink:         sink,
		tx:           sink.Classes("secondary.tx", wire.TrafficClassNames()),
		primaryEpoch: sink.Gauge("secondary.primary_epoch"),
		parentTier:   sink.Gauge("secondary.tree.parent_tier"),
		nackRanges:   sink.Histogram("secondary.nack.ranges", []uint64{1, 2, 4, 8, 16, 32}),
	}
}

type secStream struct {
	key     StreamKey
	store   *Store
	source  transport.Addr // learned from the stream's data packets
	primary transport.Addr
	// fetchTier is the global tier of the stream's current fetch target
	// (stamped on upward NACKs; moves with the logger-wide parent slot).
	fetchTier int
	// primaryEpoch is the highest primary epoch observed (heartbeats and
	// redirects carry it); redirects stamped lower are from a fenced, stale
	// primary and must not move the fetch target.
	primaryEpoch uint32
	// hbHigh is the highest sequence number referenced by a heartbeat.
	hbHigh uint64
	// pendingReq holds local receivers waiting for packets we don't have,
	// in arrival order (deterministic service order for the trace hash).
	pendingReq map[uint64][]transport.Addr
	// fetch state toward the primary.
	nackTimer  vtime.Timer
	retryTimer vtime.Timer
	retries    int
	// gaveUpBelow suppresses re-fetching sequence numbers we already
	// abandoned.
	gaveUpBelow uint64
	// recent request counts per seq for the re-multicast decision.
	reqWindow map[uint64]*reqCount
	// acker state.
	isAcker    bool
	ackerEpoch uint32
}

type reqCount struct {
	requesters  map[transport.Addr]bool
	remulticast bool
	expire      vtime.Timer
	// Pool plumbing: the expiry callback is created once per reqCount and
	// reads the episode's identity from these fields, so re-arming the
	// window for a new seq is a Reset, not an allocation. armed guards
	// against a stale timer firing after the entry was recycled.
	seq   uint64
	st    *secStream
	armed bool
}

// NewSecondary returns a secondary logger for cfg.
func NewSecondary(cfg SecondaryConfig) *Secondary {
	cfg = cfg.withDefaults()
	s := &Secondary{
		cfg:       cfg,
		streams:   make(map[StreamKey]*secStream),
		cands:     cfg.candidates(),
		treeEpoch: cfg.TreeEpoch,
		mx:        newSecondaryMetrics(cfg.Obs),
	}
	s.mx.parentTier.Set(int64(s.currentParent().tier))
	cfg.Obs.Registry().AttachStats(&s.stats)
	return s
}

// currentParent returns the logger-wide escalation-chain entry fetches
// currently target. With an empty chain it returns a nil-addressed entry
// one tier up (fetches abandon immediately, as before).
func (s *Secondary) currentParent() parentCand {
	if s.slot < len(s.cands) {
		return s.cands[s.slot]
	}
	return parentCand{nil, s.cfg.Tier + 1}
}

// now returns the trace timestamp (0 before Start).
func (s *Secondary) now() int64 {
	if s.env == nil {
		return 0
	}
	return s.env.Now().UnixNano()
}

// Stats returns a snapshot of the logger's counters.
func (s *Secondary) Stats() SecondaryStats { return s.stats }

// Stop halts the logger's timers and packet processing and releases any
// disk spill files. Safe to call once.
func (s *Secondary) Stop() {
	s.stopped = true
	s.cfg.Obs.Registry().DetachStats(&s.stats)
	for _, st := range s.streams {
		st.store.Close()
	}
}

// after schedules fn guarded by the stopped flag.
func (s *Secondary) after(d time.Duration, fn func()) vtime.Timer {
	return s.env.AfterFunc(d, func() {
		if !s.stopped {
			fn()
		}
	})
}

// PrimaryTarget returns the stream's current fetch target and the highest
// primary epoch observed for it (for tests).
func (s *Secondary) PrimaryTarget(key StreamKey) (transport.Addr, uint32) {
	if st := s.streams[key]; st != nil {
		return st.primary, st.primaryEpoch
	}
	return nil, 0
}

// Store returns the log store for a stream (nil if the stream is unknown),
// for tests and tooling.
func (s *Secondary) Store(key StreamKey) *Store {
	if st := s.streams[key]; st != nil {
		return st.store
	}
	return nil
}

// Start implements transport.Handler.
func (s *Secondary) Start(env transport.Env) {
	s.env = env
	if err := env.Join(s.cfg.Group); err != nil {
		panic("logger: secondary failed to join group: " + err.Error())
	}
	if d := evictInterval(s.cfg.Retention); d > 0 {
		env.AfterFunc(d, s.evictTick)
	}
	// A tier node announces itself so children that re-homed while it was
	// down (or that booted first) converge back to it (§2.2 hierarchy).
	if s.cfg.Tier > 0 {
		p := wire.Packet{
			Type: wire.TypeReparent, Group: s.cfg.Group,
			TreeEpoch: s.treeEpoch, Epoch: s.priEpochHigh,
			Addr: env.LocalAddr().String(),
		}
		p.SetTier(s.cfg.Tier)
		s.multicast(&p, s.cfg.AnnounceTTL)
	}
}

// evictTick enforces age-based retention even on idle streams.
func (s *Secondary) evictTick() {
	now := s.env.Now()
	for _, st := range s.streams {
		st.store.EvictExpired(now)
	}
	s.after(evictInterval(s.cfg.Retention), s.evictTick)
}

// Recv implements transport.Handler.
func (s *Secondary) Recv(from transport.Addr, data []byte) {
	if s.stopped {
		return
	}
	var p wire.Packet
	// The shared Decoder recycles NACK range storage across packets:
	// p.Ranges is dead once this call returns, so the alias is safe.
	if err := s.dec.Unmarshal(data, &p); err != nil {
		s.stats.Malformed++
		return
	}
	if p.Group != s.cfg.Group {
		return
	}
	switch p.Type {
	case wire.TypeData, wire.TypeRetrans, wire.TypeLogSync:
		s.onData(from, &p)
	case wire.TypeHeartbeat:
		s.onHeartbeat(from, &p)
	case wire.TypeNack:
		s.onNack(from, &p)
	case wire.TypeAckerSelect:
		s.onAckerSelect(from, &p)
	case wire.TypeSizeProbe:
		s.onProbe(from, &p)
	case wire.TypeDiscoveryQuery:
		s.onDiscovery(from, &p)
	case wire.TypePrimaryRedirect:
		s.onRedirect(&p)
	case wire.TypeReparent:
		s.onReparent(&p)
	}
}

func (s *Secondary) stream(key StreamKey) *secStream {
	if st := s.last; st != nil && st.key == key {
		return st
	}
	st := s.streams[key]
	if st == nil {
		cand := s.currentParent()
		st = &secStream{
			key:        key,
			store:      NewStore(s.cfg.Retention),
			primary:    cand.addr,
			fetchTier:  cand.tier,
			pendingReq: make(map[uint64][]transport.Addr),
			reqWindow:  make(map[uint64]*reqCount),
		}
		s.streams[key] = st
	}
	s.last = st
	return st
}

// getWaiters takes a waiter list from the pool (or allocates one).
func (s *Secondary) getWaiters() []transport.Addr {
	if n := len(s.waiterPool); n > 0 {
		w := s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
		return w
	}
	return make([]transport.Addr, 0, 1)
}

// putWaiters returns a waiter list to the pool once its seq is resolved.
func (s *Secondary) putWaiters(w []transport.Addr) {
	s.waiterPool = append(s.waiterPool, w[:0])
}

// getReqCount takes a request-window entry from the pool (or builds a
// fresh one, creating its expiry callback exactly once) and arms it for
// (st, seq). Recycled entries re-arm their existing timer with Reset, so
// the steady-state request window allocates nothing.
func (s *Secondary) getReqCount(st *secStream, seq uint64) *reqCount {
	var rc *reqCount
	if n := len(s.reqPool); n > 0 {
		rc = s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
		clear(rc.requesters)
		rc.remulticast = false
	} else {
		rc = &reqCount{requesters: make(map[transport.Addr]bool, 1)}
	}
	rc.st, rc.seq, rc.armed = st, seq, true
	if rc.expire == nil {
		rc.expire = s.after(s.cfg.RemcastWindow, func() { s.expireReq(rc) })
	} else {
		rc.expire.Reset(s.cfg.RemcastWindow)
	}
	return rc
}

// expireReq closes one request-counting window and recycles its entry.
func (s *Secondary) expireReq(rc *reqCount) {
	if !rc.armed {
		return
	}
	rc.armed = false
	delete(rc.st.reqWindow, rc.seq)
	rc.st = nil
	s.reqPool = append(s.reqPool, rc)
}

func (s *Secondary) onData(from transport.Addr, p *wire.Packet) {
	st := s.stream(KeyOf(p))
	if p.Type == wire.TypeData && p.Flags&wire.FlagFromLogger == 0 {
		st.source = from
	}
	// A late-joining secondary logs from here on; it does not backfill the
	// stream's entire history (receivers needing older packets are served
	// on demand via the primary).
	if p.Seq > 0 {
		st.store.SetBase(p.Seq - 1)
	}
	stored := st.store.Put(p.Seq, p.Payload, s.env.Now())
	if !stored {
		atomic.AddUint64(&s.stats.Duplicates, 1)
	} else {
		atomic.AddUint64(&s.stats.PacketsLogged, 1)
		if p.Type == wire.TypeRetrans || p.Type == wire.TypeLogSync {
			// A repair we logged filled a hole in our own log: the upward
			// fetch (or a parent's repair multicast) recovered it.
			s.stats.FetchesSatisfied++
		}
		// Designated Acker duty: acknowledge fresh data of our epoch.
		if st.isAcker && p.Type == wire.TypeData && p.Epoch == st.ackerEpoch && st.source != nil {
			s.ackPkt = wire.Packet{
				Type: wire.TypeAck, Source: p.Source, Group: p.Group,
				Seq: p.Seq, Epoch: p.Epoch,
			}
			s.send(st.source, &s.ackPkt)
			atomic.AddUint64(&s.stats.AcksSent, 1)
		}
	}
	// Satisfy any local receivers waiting on this packet. A packet that
	// arrived from the primary (a fetched retransmission or a LogSync)
	// makes the relayed repair a primary-callback recovery; anything else
	// (the original multicast, a source re-multicast) leaves it a local
	// serve from this logger's view.
	if waiters := st.pendingReq[p.Seq]; len(waiters) > 0 {
		delete(st.pendingReq, p.Seq)
		viaPrimary := p.Flags&wire.FlagViaPrimary != 0 || p.Type == wire.TypeLogSync
		s.serveWaiters(st, p.Seq, waiters, viaPrimary)
		s.putWaiters(waiters)
	}
	s.checkGaps(st)
}

func (s *Secondary) onHeartbeat(from transport.Addr, p *wire.Packet) {
	st := s.stream(KeyOf(p))
	st.source = from
	if p.PrimaryEpoch > st.primaryEpoch {
		s.mx.sink.Emit(s.now(), obs.KindEpochBump, uint64(st.primaryEpoch), uint64(p.PrimaryEpoch), 0)
		st.primaryEpoch = p.PrimaryEpoch
		s.mx.primaryEpoch.Set(int64(st.primaryEpoch))
	}
	if p.PrimaryEpoch > s.priEpochHigh {
		s.priEpochHigh = p.PrimaryEpoch
	}
	// First contact via heartbeat: adopt the current position, skipping
	// history.
	st.store.SetBase(p.Seq)
	if p.Seq > st.hbHigh {
		st.hbHigh = p.Seq
	}
	// A heartbeat carrying inline data doubles as a retransmission
	// (paper §7 extension).
	if p.Flags&wire.FlagInlineData != 0 && p.Seq > 0 {
		if st.store.Put(p.Seq, p.Payload, s.env.Now()) {
			atomic.AddUint64(&s.stats.PacketsLogged, 1)
		}
		if waiters := st.pendingReq[p.Seq]; len(waiters) > 0 {
			delete(st.pendingReq, p.Seq)
			s.serveWaiters(st, p.Seq, waiters, false)
			s.putWaiters(waiters)
		}
	}
	s.checkGaps(st)
}

// maxSeqsPerNack bounds the per-NACK work a client can demand.
const maxSeqsPerNack = 1024

func (s *Secondary) onNack(from transport.Addr, p *wire.Packet) {
	st := s.stream(KeyOf(p))
	atomic.AddUint64(&s.stats.NacksFromClients, 1)
	budget := maxSeqsPerNack
	needFetch := false
	for _, r := range p.Ranges {
		for seq := r.From; seq <= r.To && budget > 0; seq++ {
			budget--
			s.stats.SeqsRequested++
			if st.store.Has(seq) {
				if s.cfg.MakespanRepair {
					s.queueRepair(st, seq, from)
				} else {
					s.serveLocal(st, seq, from)
				}
				continue
			}
			if st.store.Evicted(seq) {
				// Evicted by retention: we cannot serve it and fetching it
				// again is pointless (the primary applies its own
				// retention); the receiver's escalation path handles it.
				continue
			}
			w, ok := st.pendingReq[seq]
			if !ok {
				w = s.getWaiters()
			}
			if !slices.Contains(w, from) {
				w = append(w, from)
			}
			st.pendingReq[seq] = w
			needFetch = true
			// An explicit client request re-opens sequence numbers we had
			// given up on: the retry shows continued demand.
			if seq <= st.gaveUpBelow {
				st.gaveUpBelow = seq - 1
			}
		}
	}
	if needFetch {
		s.checkGaps(st)
	}
}

// serveLocal answers one locally-available retransmission request,
// deciding between unicast and site-scoped re-multicast based on recent
// demand (§2.2.1).
func (s *Secondary) serveLocal(st *secStream, seq uint64, from transport.Addr) {
	rc := st.reqWindow[seq]
	if rc == nil {
		rc = s.getReqCount(st, seq)
		st.reqWindow[seq] = rc
	}
	rc.requesters[from] = true
	if rc.remulticast {
		return // already re-multicast within this window; requester will hear it
	}
	if len(rc.requesters) >= s.cfg.RemcastThreshold {
		rc.remulticast = true
		s.retransmit(st, seq, nil, false)
		return
	}
	s.retransmit(st, seq, from, false)
}

// serveWaiters delivers a just-recovered packet to the receivers that
// asked for it. viaPrimary records whether the packet had to be fetched
// through the primary callback (§2.2.2) rather than found locally.
func (s *Secondary) serveWaiters(st *secStream, seq uint64, waiters []transport.Addr, viaPrimary bool) {
	if len(waiters) >= s.cfg.RemcastThreshold {
		s.retransmit(st, seq, nil, viaPrimary)
		return
	}
	for _, w := range waiters {
		s.retransmit(st, seq, w, viaPrimary)
	}
}

// retransmit sends the stored packet for seq to one receiver (unicast) or,
// with to == nil, re-multicasts it with site scope. viaPrimary stamps
// FlagViaPrimary so receivers attribute the repair to the primary-callback
// path.
func (s *Secondary) retransmit(st *secStream, seq uint64, to transport.Addr, viaPrimary bool) {
	payload, ok := st.store.Get(seq)
	if !ok {
		return
	}
	p := wire.Packet{
		Type: wire.TypeRetrans, Flags: wire.FlagRetransmission | wire.FlagFromLogger,
		Source: st.key.Source, Group: st.key.Group, Seq: seq, Payload: payload,
	}
	path := wire.PathLocal
	if viaPrimary {
		p.Flags |= wire.FlagViaPrimary
		path = wire.PathPrimaryCallback
	}
	if to == nil {
		s.multicast(&p, s.cfg.RemcastTTL)
		atomic.AddUint64(&s.stats.Remulticasts, 1)
		s.mx.sink.EmitFlight(s.now(), obs.KindServe, seq, uint64(path), 1)
		return
	}
	s.send(to, &p)
	atomic.AddUint64(&s.stats.RetransUnicast, 1)
	s.mx.sink.EmitFlight(s.now(), obs.KindServe, seq, uint64(path), 0)
}

// clampWindow enforces RecoveryWindow: a logger that is hopelessly behind
// (or being fed forged sequence numbers) skips ahead instead of
// backfilling without bound.
func (s *Secondary) clampWindow(st *secStream) {
	hi := st.store.Highest()
	if st.hbHigh > hi {
		hi = st.hbHigh
	}
	contig := st.store.Contiguous()
	if hi <= contig+s.cfg.RecoveryWindow {
		return
	}
	skipTo := hi - s.cfg.RecoveryWindow
	s.mx.sink.Emit(s.now(), obs.KindSkipAhead, contig, skipTo, 0)
	st.store.Advance(skipTo)
	if skipTo > st.gaveUpBelow {
		st.gaveUpBelow = skipTo
	}
	for seq, w := range st.pendingReq {
		if seq <= skipTo {
			delete(st.pendingReq, seq)
			s.putWaiters(w)
		}
	}
	atomic.AddUint64(&s.stats.SkippedAhead, 1)
}

// checkGaps schedules a fetch from the primary when the local log has
// holes (either sequence gaps or heartbeat-revealed missing packets).
func (s *Secondary) checkGaps(st *secStream) {
	s.clampWindow(st)
	if st.nackTimer != nil || st.retryTimer != nil {
		return
	}
	// Fast path for the per-packet steady state: a contiguous log with no
	// waiting receivers has nothing to fetch, so skip building the range
	// list (missing sorts and appends) entirely.
	hi := st.store.Highest()
	if st.hbHigh > hi {
		hi = st.hbHigh
	}
	if len(st.pendingReq) == 0 && hi <= st.store.Contiguous() {
		return
	}
	if len(s.missing(st)) == 0 {
		return
	}
	st.nackTimer = s.after(s.cfg.NackDelay, func() {
		st.nackTimer = nil
		st.retries = 0
		s.fetchMissing(st)
	})
}

// missing returns what the stream should fetch from the primary: log gaps
// above the give-up watermark, plus packets local receivers explicitly
// asked for (including pre-join history below the base watermark). The
// returned slice is backed by the Secondary's scratch storage and is valid
// only until the next missing call.
func (s *Secondary) missing(st *secStream) []wire.SeqRange {
	hi := st.store.Highest()
	if st.hbHigh > hi {
		hi = st.hbHigh
	}
	out := s.rangeScratch[:0]
	s.trackScratch = st.store.AppendMissing(s.trackScratch[:0], hi, wire.MaxNackRanges)
	for _, r := range s.trackScratch {
		if r.To <= st.gaveUpBelow {
			continue
		}
		if r.From <= st.gaveUpBelow {
			r.From = st.gaveUpBelow + 1
		}
		out = append(out, r)
	}
	covered := func(seq uint64) bool {
		for _, r := range out {
			if r.Contains(seq) {
				return true
			}
		}
		return false
	}
	extra := s.seqScratch[:0]
	for seq := range st.pendingReq {
		if st.store.Has(seq) || st.store.Evicted(seq) || covered(seq) {
			continue
		}
		extra = append(extra, seq)
	}
	s.seqScratch = extra
	if len(extra) > 0 {
		slices.Sort(extra)
		for _, seq := range extra {
			if n := len(out); n > 0 && out[n-1].To+1 == seq {
				out[n-1].To = seq
				continue
			}
			out = append(out, wire.SeqRange{From: seq, To: seq})
		}
		slices.SortFunc(out, func(a, b wire.SeqRange) int {
			switch {
			case a.From < b.From:
				return -1
			case a.From > b.From:
				return 1
			}
			return 0
		})
	}
	if len(out) > wire.MaxNackRanges {
		out = out[:wire.MaxNackRanges]
	}
	s.rangeScratch = out
	return out
}

// fetchMissing sends one aggregated NACK to the primary and arms the retry
// timer.
func (s *Secondary) fetchMissing(st *secStream) {
	ranges := s.missing(st)
	if len(ranges) == 0 {
		st.retries = 0
		return
	}
	if st.retries >= s.cfg.MaxRetries {
		// The parent stayed dead through a full retry episode: degrade
		// gracefully by re-homing the whole logger to the next candidate
		// (a sibling of the parent, or the next tier up) and fire the
		// backfill fetch at it immediately. Only when the entire chain is
		// exhausted do we abandon.
		if !s.rehome() {
			s.abandon(st, ranges)
			return
		}
	}
	if st.primary == nil {
		// No parent known: abandon these waiters; receivers escalate on
		// their own timeout.
		s.abandon(st, ranges)
		return
	}
	st.retries++
	nack := wire.Packet{
		Type: wire.TypeNack, Source: st.key.Source, Group: st.key.Group,
		Ranges: ranges,
	}
	nack.SetTier(st.fetchTier)
	s.send(st.primary, &nack)
	atomic.AddUint64(&s.stats.NacksToPrimary, 1)
	s.mx.nackRanges.Observe(uint64(len(ranges)))
	if s.mx.sink != nil {
		// Flight recorder: the aggregated upward fetch is the NACK hop of
		// every covered seq's escalated chain; B carries the fetch-target
		// tier offset by NackTierFetch to keep it distinct from receiver
		// escalation phases.
		nowNS := s.now()
		for _, r := range ranges {
			for seq := r.From; seq <= r.To; seq++ {
				s.mx.sink.EmitFlight(nowNS, obs.KindNackSend, seq, uint64(obs.NackTierFetch+st.fetchTier), uint64(st.retries-1))
			}
		}
	}
	// Jittered exponential backoff: every site logger behind a healed
	// partition holds the same gaps; fixed-period retries would hit the
	// primary in synchronized waves (§2.2.2's correlated loss applies to
	// control traffic too).
	retry := transport.Backoff{Base: s.cfg.RequestTimeout}.Interval(st.retries-1, s.env.Rand())
	st.retryTimer = s.after(retry, func() {
		st.retryTimer = nil
		s.fetchMissing(st)
	})
}

// rehome advances the logger-wide parent slot to the next escalation-chain
// candidate and re-targets every stream at it: fetch targets move, retry
// budgets reset, and give-up watermarks reopen so the new parent is asked
// for everything still missing (the backfill). Returns false when the
// chain is exhausted.
func (s *Secondary) rehome() bool {
	if s.slot+1 >= len(s.cands) {
		return false
	}
	old := s.cands[s.slot]
	s.slot++
	cand := s.cands[s.slot]
	for _, st := range s.streams {
		st.primary = cand.addr
		st.fetchTier = cand.tier
		st.retries = 0
		st.gaveUpBelow = 0
	}
	atomic.AddUint64(&s.stats.Rehomes, 1)
	s.mx.parentTier.Set(int64(cand.tier))
	s.mx.sink.Emit(s.now(), obs.KindRehome, uint64(cand.tier), uint64(old.tier), uint64(s.slot))
	return true
}

// onReparent handles a tier node's (re)join announcement: if the announcer
// is an escalation-chain candidate closer to home than the current parent,
// adopt it (the healed node converges its re-homed children back). Two
// fences reject stale announcements: the per-tier tree epoch must be
// strictly newer than the last adopted for that tier, and a non-zero
// header Epoch must not be below the highest primary epoch observed.
func (s *Secondary) onReparent(p *wire.Packet) {
	addr, err := s.env.ParseAddr(p.Addr)
	if err != nil {
		s.stats.Malformed++
		return
	}
	t := p.Tier()
	if (p.Epoch != 0 && p.Epoch < s.priEpochHigh) || p.TreeEpoch <= s.tierEpochs[t] {
		atomic.AddUint64(&s.stats.StaleReparents, 1)
		s.mx.sink.Emit(s.now(), obs.KindReparent, uint64(t), uint64(p.TreeEpoch), 0)
		return
	}
	s.tierEpochs[t] = p.TreeEpoch
	idx := -1
	for i, c := range s.cands {
		if c.tier == t && c.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= s.slot {
		// Not one of our candidates (or not an improvement): the
		// announcement is fresh but changes nothing for this logger.
		return
	}
	s.slot = idx
	cand := s.cands[idx]
	for _, st := range s.streams {
		st.primary = cand.addr
		st.fetchTier = cand.tier
		st.retries = 0
		st.gaveUpBelow = 0
		// Re-target any in-flight fetch episode at the recovered parent
		// now rather than after a full backoff interval.
		if st.retryTimer != nil {
			st.retryTimer.Stop()
			st.retryTimer = nil
			s.fetchMissing(st)
		} else {
			s.checkGaps(st)
		}
	}
	atomic.AddUint64(&s.stats.ReparentsFollowed, 1)
	s.mx.parentTier.Set(int64(cand.tier))
	s.mx.sink.Emit(s.now(), obs.KindReparent, uint64(t), uint64(p.TreeEpoch), 1)
}

// Parent returns the logger-wide current fetch parent and its global tier
// (for tests and the chaos harness's convergence invariant).
func (s *Secondary) Parent() (transport.Addr, int) {
	cand := s.currentParent()
	return cand.addr, cand.tier
}

// abandon gives up on the listed ranges and releases their waiters.
func (s *Secondary) abandon(st *secStream, ranges []wire.SeqRange) {
	var hi uint64
	for _, r := range ranges {
		if r.To > hi {
			hi = r.To
		}
		for seq := r.From; seq <= r.To; seq++ {
			if w, ok := st.pendingReq[seq]; ok {
				delete(st.pendingReq, seq)
				s.putWaiters(w)
			}
		}
	}
	if hi > st.gaveUpBelow {
		st.gaveUpBelow = hi
	}
	st.retries = 0
	atomic.AddUint64(&s.stats.FetchesAbandoned, 1)
}

func (s *Secondary) onAckerSelect(from transport.Addr, p *wire.Packet) {
	if s.cfg.DisableAcking {
		return
	}
	st := s.stream(KeyOf(p))
	st.source = from
	if p.Epoch <= st.ackerEpoch && st.ackerEpoch != 0 {
		return // stale or duplicate selection round
	}
	if s.env.Rand().Float64() < p.PAck {
		st.isAcker = true
		st.ackerEpoch = p.Epoch
		resp := wire.Packet{
			Type: wire.TypeAckerResponse, Source: p.Source, Group: p.Group,
			Epoch: p.Epoch,
		}
		s.send(from, &resp)
		s.stats.AckerSelections++
	} else {
		st.isAcker = false
		st.ackerEpoch = p.Epoch
	}
}

func (s *Secondary) onProbe(from transport.Addr, p *wire.Packet) {
	if s.cfg.DisableAcking {
		return
	}
	if s.env.Rand().Float64() < p.PAck {
		resp := wire.Packet{
			Type: wire.TypeSizeProbeResponse, Source: p.Source, Group: p.Group,
			ProbeID: p.ProbeID,
		}
		s.send(from, &resp)
		s.stats.ProbeResponses++
	}
}

func (s *Secondary) onDiscovery(from transport.Addr, p *wire.Packet) {
	if s.cfg.DisableDiscovery {
		return
	}
	delay := time.Duration(0)
	if s.cfg.DiscoveryJitter > 0 {
		delay = time.Duration(s.env.Rand().Int63n(int64(s.cfg.DiscoveryJitter)))
	}
	reply := wire.Packet{
		Type: wire.TypeDiscoveryReply, Source: p.Source, Group: p.Group,
		Addr: s.env.LocalAddr().String(),
	}
	s.after(delay, func() {
		s.send(from, &reply)
		s.stats.DiscoveryReplies++
	})
}

func (s *Secondary) onRedirect(p *wire.Packet) {
	addr, err := s.env.ParseAddr(p.Addr)
	if err != nil {
		s.stats.Malformed++
		return
	}
	st := s.stream(KeyOf(p))
	// Epoch fence (§2.2.3): a redirect stamped below the highest primary
	// epoch we have observed comes from a fenced, stale primary.
	if p.Epoch < st.primaryEpoch {
		atomic.AddUint64(&s.stats.StaleRedirects, 1)
		s.mx.sink.Emit(s.now(), obs.KindFenceHit, uint64(st.primaryEpoch), uint64(p.Epoch), uint64(p.Type))
		return
	}
	if p.Epoch > st.primaryEpoch {
		s.mx.sink.Emit(s.now(), obs.KindEpochBump, uint64(st.primaryEpoch), uint64(p.Epoch), 0)
		st.primaryEpoch = p.Epoch
		s.mx.primaryEpoch.Set(int64(st.primaryEpoch))
	}
	if p.Epoch > s.priEpochHigh {
		s.priEpochHigh = p.Epoch
	}
	// The primary moved: record it in the escalation chain's final slot so
	// a later escalation targets the live primary, but only re-target the
	// stream's fetches when it is the primary we are currently fetching
	// from (a lower-tier parent is unaffected by a primary failover).
	if n := len(s.cands); n > 0 {
		s.cands[n-1].addr = addr
		if s.slot != n-1 {
			return
		}
		st.fetchTier = s.cands[n-1].tier
	}
	if st.primary == addr {
		return // already pointed there; nothing new
	}
	st.primary = addr
	s.stats.RedirectsFollowed++
	// A new primary may be able to serve what we had given up on.
	st.gaveUpBelow = 0
	// Re-target any in-flight fetch episode: retries burned against the
	// old (dead) primary must not count toward MaxRetries at the new one,
	// and the pending retry should re-fire at the new address now rather
	// than after a full backoff interval.
	st.retries = 0
	if st.retryTimer != nil {
		st.retryTimer.Stop()
		st.retryTimer = nil
		s.fetchMissing(st)
		return
	}
	s.checkGaps(st)
}

func (s *Secondary) send(to transport.Addr, p *wire.Packet) {
	buf, err := p.AppendMarshal(s.scratch[:0])
	if err != nil {
		return
	}
	s.scratch = buf
	s.mx.tx.Record(int(wire.ClassOf(p.Type)), len(buf))
	_ = s.env.Send(to, buf)
}

func (s *Secondary) multicast(p *wire.Packet, ttl int) {
	buf, err := p.AppendMarshal(s.scratch[:0])
	if err != nil {
		return
	}
	s.scratch = buf
	s.mx.tx.Record(int(wire.ClassOf(p.Type)), len(buf))
	_ = s.env.Multicast(s.cfg.Group, ttl, buf)
}
