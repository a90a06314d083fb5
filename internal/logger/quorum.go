package logger

// Quorum replication mode (DESIGN.md §12): the primary withholds the
// source-ack watermark until a configurable write quorum of replicas has
// applied each packet. Replication acks propagate around a ring — primary →
// R1 → R2 → … → primary — with each hop piggybacking its cumulative applied
// watermark on the circulating token, so the per-packet replication message
// cost stays O(1) in the replica count (one sync-class message per ring
// link) instead of the 2R of direct fan-out with per-replica acks.
//
// The ring is an optimization, not the durability mechanism: the periodic
// direct LogSync repair tick (syncTick) stays armed underneath it and
// re-sends anything the per-replica watermarks have not covered, so a lost
// token costs latency, never durability. When tokens stop returning the
// primary falls back to direct fan-in wholesale and probes a repaired ring
// (computed from the replicas that prove themselves live) on a jittered
// backoff. Everything is epoch-fenced exactly like the rest of the failover
// machinery; ring tokens additionally carry a ring version so a token
// launched on a superseded topology dies at the first surviving hop.

import (
	"sync/atomic"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// Quorum health gauge values (primary.quorum.health).
const (
	// QuorumHealthOK: every stream's quorum watermark tracks the log.
	QuorumHealthOK = 0
	// QuorumHealthLagging: some acks are parked behind the quorum.
	QuorumHealthLagging = 1
	// QuorumHealthDegraded: acks have been parked past QuorumDeadline —
	// the quorum is unreachable or unsatisfiable.
	QuorumHealthDegraded = 2
)

// ringRTTWindow bounds the launch-time buffer used to measure ring RTT.
const ringRTTWindow = 64

// tokenLaunch remembers when a ring token left, keyed loosely by stream and
// sequence; a fixed circular buffer instead of a map keeps the hot path
// allocation-free (an overwritten entry just loses one RTT sample).
type tokenLaunch struct {
	src wire.SourceID
	seq uint64
	at  int64
}

// quorumState is the acting primary's side of the ring protocol.
type quorumState struct {
	// ver is the current ring generation; tokens and role installations
	// carry it, and anything from an older generation is dropped.
	ver uint32
	// ring holds indices into p.replicas in hop order.
	ring []int
	// direct is the degraded replication path: ring tokens stopped
	// returning, so just-logged packets go back to direct LogSync fan-out
	// until a repair probe completes the circle.
	direct bool
	// probing marks an outstanding repair probe token.
	probing bool
	// repairs counts repair attempts since the last restore (backoff).
	repairs int
	// outstanding counts current-generation data tokens in flight;
	// lastReturn is when the last token (data or probe) completed the
	// circle, and outSince when outstanding last rose from zero. A stall
	// means a token has been in flight for RingStallTimeout with no
	// return — measured from whichever of the two is later, so that at
	// send rates slower than the timeout a freshly launched token is not
	// mistaken for a stale one just because the previous return is a full
	// send interval old. All reset on a generation change — tokens of a
	// superseded ring die at the first surviving hop by construction.
	outstanding int
	lastReturn  int64
	outSince    int64
	// parkedSince is when the current lagging episode began (0 = none).
	parkedSince int64
	degraded    bool
	// launches is the RTT sample buffer (see tokenLaunch).
	launches [ringRTTWindow]tokenLaunch
	li       int
	// tickTimer drives quorumTick; repairTimer the ring-repair backoff.
	tickTimer   vtime.Timer
	repairTimer vtime.Timer
}

// ringRole is a replica's installed position in the primary's ack ring.
type ringRole struct {
	active bool
	epoch  uint32
	ver    uint32
	pos    uint8 // 1-based hop position
	size   uint8 // number of replica hops
	succ   transport.Addr
}

// quorumOn reports whether this server is currently gating source acks on
// the write quorum (acting primary with the mode configured).
func (p *Primary) quorumOn() bool {
	return p.cfg.Quorum > 0 && !p.replica
}

// quorumSeq is the write-quorum watermark for a stream: the highest sequence
// number applied by at least cfg.Quorum replicas. Deliberately unclamped —
// a quorum larger than the replica set is unsatisfiable and yields 0,
// parking acknowledgements and surfacing degraded health rather than
// quietly weakening the guarantee.
func (p *Primary) quorumSeq(key StreamKey) uint64 {
	return p.rankSeq(key, p.cfg.Quorum)
}

// initQuorum enters quorum mode on an acting primary. optimistic forms the
// full ring immediately (a configured clean start); a promoted primary
// instead starts in direct fan-in and repairs a ring out of the replicas
// that prove themselves live — the fault that elected it may have taken a
// ring member with it.
func (p *Primary) initQuorum(optimistic bool) {
	if p.cfg.Quorum <= 0 {
		return
	}
	if p.q == nil {
		p.q = &quorumState{}
	}
	q := p.q
	if optimistic && len(p.replicas) > 0 {
		p.formRing(true)
	} else {
		q.direct = true
		q.probing = false
		if len(p.replicas) > 0 {
			p.armRingRepair()
		}
	}
	p.armQuorumTick()
}

// formRing computes a new ring generation and installs it. With all set
// every replica joins; otherwise only recently-seen replicas do (falling
// back to all when none qualify, e.g. right after promotion).
func (p *Primary) formRing(all bool) {
	q := p.q
	q.ver++
	q.outstanding = 0 // tokens of the old generation can never return
	q.outSince = 0
	q.ring = q.ring[:0]
	if !all {
		cutoff := p.now() - 3*int64(p.cfg.SyncRetry)
		for i, r := range p.replicas {
			if r.lastSeen > 0 && r.lastSeen >= cutoff {
				q.ring = append(q.ring, i)
			}
		}
	}
	if len(q.ring) == 0 {
		for i := range p.replicas {
			q.ring = append(q.ring, i)
		}
	}
	if len(q.ring) > wire.MaxQuorumSlots {
		q.ring = q.ring[:wire.MaxQuorumSlots]
	}
	p.installRing()
}

// installRing ships every ring member its role: generation, 1-based hop
// position, ring size, and successor address (the last hop's successor is
// the primary itself, closing the circle).
func (p *Primary) installRing() {
	q := p.q
	self := p.env.LocalAddr().String()
	n := len(q.ring)
	for i, ri := range q.ring {
		succ := self
		if i+1 < n {
			succ = p.replicas[q.ring[i+1]].addr.String()
		}
		cfgPkt := wire.Packet{
			Type: wire.TypeRingConfig, Group: p.cfg.Group, Epoch: p.epoch,
			RingVer: q.ver, RingPos: uint8(i + 1), RingSize: uint8(n),
			Addr: succ,
		}
		p.send(p.replicas[ri].addr, &cfgPkt)
		p.stats.RingConfigsSent++
	}
}

// replicateOrRing ships one just-logged packet to the replicas: in ring
// mode as a single payload-carrying ring token, otherwise as the direct
// LogSync fan-out. The periodic syncTick stays armed either way and repairs
// lost tokens, so the ring never weakens durability.
func (p *Primary) replicateOrRing(st *priStream, seq uint64) {
	if q := p.q; q != nil && !q.direct && len(q.ring) > 0 {
		if payload, ok := st.store.Get(seq); ok {
			// Fresh work cancels the idle backoff, mirroring replicate(): a
			// lost token should be repaired within one base SyncRetry.
			if p.syncIdle > 0 {
				p.syncIdle = 0
				p.armSync(p.syncInterval())
			}
			p.ringLaunch(st, seq, payload)
			return
		}
	}
	p.replicate(st, seq)
}

// ringLaunch starts one data token around the ring.
func (p *Primary) ringLaunch(st *priStream, seq uint64, payload []byte) {
	q := p.q
	tok := wire.Packet{
		Type: wire.TypeQuorumAck, Source: st.key.Source, Group: st.key.Group,
		Seq: seq, Epoch: p.epoch, RingVer: q.ver, Payload: payload,
	}
	p.send(p.replicas[q.ring[0]].addr, &tok)
	p.stats.QuorumLaunched++
	now := p.now()
	if q.outstanding == 0 {
		q.outSince = now
	}
	q.outstanding++
	q.launches[q.li] = tokenLaunch{src: st.key.Source, seq: seq, at: now}
	q.li++
	if q.li == ringRTTWindow {
		q.li = 0
	}
}

// onQuorumAck dispatches a ring token: replicas forward it, the acting
// primary folds the completed circle. Epoch fencing mirrors every other
// authority-bearing message.
func (p *Primary) onQuorumAck(pkt *wire.Packet) {
	if p.observeEpoch(pkt.Epoch) || p.staleAuthority(pkt, &p.stats.StaleQuorumAcks) {
		return // we acted on a stale epoch (the new primary owns the ring), or the token is stale
	}
	if p.replica {
		p.forwardRingToken(pkt)
		return
	}
	p.ringReturn(pkt)
}

// forwardRingToken is the replica-side hop: apply the payload, append our
// cumulative watermark, forward to the installed successor. The last hop
// drops the payload — the primary already holds it, and the return leg only
// needs the watermarks.
func (p *Primary) forwardRingToken(pkt *wire.Packet) {
	rr := &p.ring
	if !rr.active || pkt.RingVer != rr.ver || int(rr.pos) != len(pkt.Watermarks)+1 {
		// No role, a superseded generation, or a hop out of ring order
		// (stale topology mid-repair): drop it. The primary's stall
		// detector re-forms the ring; syncTick repairs the data.
		p.stats.StaleRingTokens++
		return
	}
	var wm uint64
	if pkt.Seq > 0 {
		st := p.stream(KeyOf(pkt))
		if len(pkt.Payload) > 0 {
			if st.store.Put(pkt.Seq, pkt.Payload, p.env.Now()) {
				atomic.AddUint64(&p.stats.QuorumApplied, 1)
			} else {
				atomic.AddUint64(&p.stats.Duplicates, 1)
			}
		}
		wm = st.store.Contiguous()
	}
	// Probe tokens (Seq 0) carry a zero watermark: they only prove the
	// circle is whole. The copy-and-append goes through the reusable wmBuf
	// so the steady-state forward path stays allocation-free.
	buf := append(p.wmBuf[:0], pkt.Watermarks...)
	buf = append(buf, wm)
	p.wmBuf = buf
	pkt.Watermarks = buf
	pkt.RingPos = rr.pos
	pkt.Epoch = p.epoch
	if rr.pos == rr.size {
		pkt.Payload = nil
	}
	p.send(rr.succ, pkt)
	p.stats.QuorumForwarded++
}

// ringReturn folds a token that completed the circle: every hop's watermark
// becomes that replica's cumulative ack (monotonically — see
// priStream.lastQuorumAck for why regressions are ignored), and the stream's
// quorum-gated source ack is re-minted.
func (p *Primary) ringReturn(pkt *wire.Packet) {
	q := p.q
	if q == nil || pkt.RingVer != q.ver || len(pkt.Watermarks) != len(q.ring) {
		p.stats.StaleRingTokens++
		return
	}
	now := p.now()
	q.lastReturn = now
	if pkt.Seq != 0 && q.outstanding > 0 {
		q.outstanding--
	}
	if pkt.Seq == 0 {
		// A repair probe made it all the way around: every hop is alive.
		for j := range pkt.Watermarks {
			p.replicas[q.ring[j]].lastSeen = now
		}
		if q.probing {
			q.probing = false
			if q.direct {
				q.direct = false
				q.repairs = 0
				atomic.AddUint64(&p.stats.RingRepairs, 1)
				p.mx.sink.Emit(now, obs.KindRingRepair, 2, uint64(q.ver), uint64(len(q.ring)))
			}
		}
		return
	}
	key := KeyOf(pkt)
	for j, wm := range pkt.Watermarks {
		r := p.replicas[q.ring[j]]
		if wm > r.acked[key] {
			r.acked[key] = wm
		}
		r.lastSeen = now
	}
	p.stats.QuorumReturns++
	var rtt int64
	for i := range q.launches {
		l := &q.launches[i]
		if l.seq == pkt.Seq && l.src == pkt.Source && l.at > 0 {
			rtt = now - l.at
			*l = tokenLaunch{}
			break
		}
	}
	if rtt > 0 {
		p.mx.ringRTT.Observe(uint64(rtt) / uint64(time.Millisecond))
	}
	p.mx.sink.EmitFlight(now, obs.KindQuorum, pkt.Seq, p.quorumSeq(key), uint64(rtt))
	if st := p.streams[key]; st != nil {
		p.ackSource(st)
	}
}

// onRingConfig installs (or refuses) a ring role on a replica.
func (p *Primary) onRingConfig(pkt *wire.Packet) {
	if p.observeEpoch(pkt.Epoch) || p.staleAuthority(pkt, &p.stats.StaleRingConfigs) {
		return // we were acting and the config proves a newer primary owns the log, or it is stale
	}
	if !p.replica {
		return // an acting primary takes no forwarding role
	}
	rr := &p.ring
	if rr.active && pkt.Epoch == rr.epoch && pkt.RingVer < rr.ver {
		p.stats.StaleRingConfigs++
		return
	}
	succ, err := p.env.ParseAddr(pkt.Addr)
	if err != nil {
		p.stats.Malformed++
		return
	}
	rr.active = true
	rr.epoch = pkt.Epoch
	rr.ver = pkt.RingVer
	rr.pos = pkt.RingPos
	rr.size = pkt.RingSize
	rr.succ = succ
	p.stats.RingConfigsApplied++
}

// armQuorumTick (re)schedules the quorum housekeeping tick, reusing one
// timer handle. The period is SyncRetry jittered like the sync tick.
func (p *Primary) armQuorumTick() {
	d := transport.Backoff{Base: p.cfg.SyncRetry}.Interval(0, p.env.Rand())
	q := p.q
	if q.tickTimer != nil {
		q.tickTimer.Reset(d)
		return
	}
	q.tickTimer = p.after(d, p.quorumTick)
}

// quorumTick is the quorum-mode housekeeping tick: publish the depth and
// health gauges, re-ack parked streams (rate-limited liveness proof toward
// the source while the watermark is withheld), and detect a stalled ring —
// falling back to direct fan-in and scheduling jittered-backoff repair.
func (p *Primary) quorumTick() {
	q := p.q
	if q == nil || p.replica {
		return // demoted; initQuorum re-arms on re-promotion
	}
	now := p.now()
	lagging := false
	depth := len(p.replicas)
	for key, st := range p.streams {
		contig := st.store.Contiguous()
		if contig == 0 {
			continue
		}
		if p.quorumSeq(key) < contig {
			lagging = true
		}
		// Depth: how many replicas actually back the minted watermark.
		if wm := st.lastQuorumAck; wm > 0 {
			n := 0
			for _, r := range p.replicas {
				if r.acked[key] >= wm {
					n++
				}
			}
			if n < depth {
				depth = n
			}
		}
	}
	p.mx.quorumDepth.Set(int64(depth))
	health := int64(QuorumHealthOK)
	if lagging {
		if q.parkedSince == 0 {
			q.parkedSince = now
		}
		health = QuorumHealthLagging
		if now-q.parkedSince >= int64(p.cfg.QuorumDeadline) {
			health = QuorumHealthDegraded
			if !q.degraded {
				q.degraded = true
				p.stats.QuorumDegradations++
			}
		}
		for _, st := range p.streams {
			if st.lastQuorumAck < st.store.Contiguous() {
				p.ackSource(st)
			}
		}
	} else {
		q.parkedSince = 0
		q.degraded = false
	}
	p.mx.quorumHealth.Set(health)
	flightSince := q.lastReturn
	if q.outSince > flightSince {
		flightSince = q.outSince
	}
	if !q.direct && q.outstanding > 0 &&
		now-flightSince >= int64(p.cfg.RingStallTimeout) {
		q.direct = true
		q.probing = false
		q.outstanding = 0
		q.repairs = 0
		atomic.AddUint64(&p.stats.RingStalls, 1)
		p.mx.sink.Emit(now, obs.KindRingRepair, 0, uint64(q.ver), uint64(len(q.ring)))
		p.armRingRepair()
	}
	p.armQuorumTick()
}

// armRingRepair schedules the next ring-repair attempt on a jittered
// exponential backoff, reusing one timer handle.
func (p *Primary) armRingRepair() {
	q := p.q
	n := q.repairs
	if n > 6 {
		n = 6
	}
	d := transport.Backoff{Base: p.cfg.SyncRetry}.Interval(n, p.env.Rand())
	if q.repairTimer != nil {
		q.repairTimer.Reset(d)
		return
	}
	q.repairTimer = p.after(d, p.ringRepair)
}

// ringRepair forms a candidate ring from the replicas that have recently
// proven themselves live, installs it, and launches a probe token. The ring
// is only trusted back (direct fan-in ends) when the probe completes the
// circle; until then attempts repeat with backoff.
func (p *Primary) ringRepair() {
	q := p.q
	if q == nil || p.replica || !q.direct || len(p.replicas) == 0 {
		return
	}
	p.formRing(false)
	q.probing = true
	q.repairs++
	p.stats.RingProbes++
	p.mx.sink.Emit(p.now(), obs.KindRingRepair, 1, uint64(q.ver), uint64(len(q.ring)))
	probe := wire.Packet{
		Type: wire.TypeQuorumAck, Group: p.cfg.Group,
		Epoch: p.epoch, RingVer: q.ver,
	}
	p.send(p.replicas[q.ring[0]].addr, &probe)
	p.armRingRepair()
}
