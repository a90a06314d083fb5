// Package srm implements a wb-style reliable multicast baseline — the
// "lightweight sessions" recovery scheme of Floyd, Jacobson, Liu, McCanne
// and Zhang that LBRM's §6 compares against.
//
// Recovery is unorganized: a receiver that detects a loss multicasts a
// repair request to the whole group after a randomized delay proportional
// to its distance from the source (to let another member's identical
// request suppress its own); any member holding the data multicasts the
// repair, again after a randomized suppression delay. The result is highly
// fault-tolerant but pays ≥ one group-wide request plus one group-wide
// repair per loss, and its recovery time is a small multiple of the RTT to
// the source even for losses a LAN away — exactly the costs LBRM's
// organized hierarchy avoids.
//
// Session messages announcing the highest sequence number double as the
// loss detector for idle periods, like LBRM's fixed heartbeat baseline.
package srm

import (
	"time"

	"lbrm/internal/seqtrack"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// Config parametrizes an SRM member. Request timers are drawn uniformly
// from [C1·d, (C1+C2)·d] where d is the member's one-way delay estimate to
// the source; repair timers from [D1·d, (D1+D2)·d]. The defaults are the
// SRM paper's.
type Config struct {
	// Group is the multicast group.
	Group wire.GroupID
	// Source is the stream identity (the sending member sets IsSource).
	Source wire.SourceID
	// IsSource marks the data source member.
	IsSource bool
	// SessionInterval is the fixed session-message period (source only).
	SessionInterval time.Duration
	// DistanceToSource is the member's one-way delay estimate to the
	// source (SRM learns this from session timestamps; the testbed injects
	// the true value).
	DistanceToSource time.Duration
	// C1, C2 scale the request timer; D1, D2 the repair timer.
	C1, C2, D1, D2 float64
	// OnData observes delivered packets (receivers).
	OnData func(seq uint64, payload []byte, recovered bool)
}

func (c Config) withDefaults() Config {
	if c.SessionInterval == 0 {
		c.SessionInterval = time.Second
	}
	if c.C1 == 0 {
		c.C1 = 2
	}
	if c.C2 == 0 {
		c.C2 = 2
	}
	if c.D1 == 0 {
		c.D1 = 1
	}
	if c.D2 == 0 {
		c.D2 = 1
	}
	if c.DistanceToSource == 0 {
		c.DistanceToSource = 40 * time.Millisecond
	}
	return c
}

// Stats counts a member's protocol activity.
type Stats struct {
	DataSent           uint64
	SessionsSent       uint64
	Delivered          uint64
	Duplicates         uint64
	RequestsSent       uint64 // multicast repair requests
	RequestsSuppressed uint64
	RepairsSent        uint64 // multicast repairs
	RepairsSuppressed  uint64
	Recovered          uint64
	Malformed          uint64
}

// Member is one SRM group member (source or receiver; every member caches
// data and participates in repair).
type Member struct {
	cfg Config
	env transport.Env

	seq   uint64 // source: last sent
	cache map[uint64][]byte
	track seqtrack.Tracker
	// gapScratch backs detectLosses' missing-range query.
	gapScratch []wire.SeqRange

	// pending repair requests (we are missing the packet).
	reqTimers map[uint64]*srmTimer
	// pending repairs (we hold the packet, someone asked).
	repTimers map[uint64]*srmTimer
	// loss detection → recovery latency measurement.
	lossAt map[uint64]time.Time
	// RecoveryTimes records, per recovered seq, detection → delivery.
	RecoveryTimes map[uint64]time.Duration

	stats Stats
}

type srmTimer struct {
	timer    vtime.Timer
	interval time.Duration
}

// New returns an SRM member.
func New(cfg Config) *Member {
	return &Member{
		cfg:           cfg.withDefaults(),
		cache:         make(map[uint64][]byte),
		reqTimers:     make(map[uint64]*srmTimer),
		repTimers:     make(map[uint64]*srmTimer),
		lossAt:        make(map[uint64]time.Time),
		RecoveryTimes: make(map[uint64]time.Duration),
	}
}

// Stats returns a snapshot of the member's counters.
func (m *Member) Stats() Stats { return m.stats }

// SetDistance updates the member's one-way delay estimate to the source
// (in real SRM this is learned from session-message timestamps; testbeds
// inject the true value).
func (m *Member) SetDistance(d time.Duration) { m.cfg.DistanceToSource = d }

// Contiguous returns the in-order watermark.
func (m *Member) Contiguous() uint64 { return m.track.Contiguous() }

// Start implements transport.Handler.
func (m *Member) Start(env transport.Env) {
	m.env = env
	if err := env.Join(m.cfg.Group); err != nil {
		panic("srm: join failed: " + err.Error())
	}
	if m.cfg.IsSource {
		m.env.AfterFunc(m.cfg.SessionInterval, m.sessionTick)
	}
}

// Send multicasts one data packet (source only).
func (m *Member) Send(payload []byte) (uint64, error) {
	m.seq++
	p := wire.Packet{
		Type: wire.TypeData, Source: m.cfg.Source, Group: m.cfg.Group,
		Seq: m.seq, Payload: payload,
	}
	m.track.Mark(m.seq)
	m.cache[m.seq] = append([]byte(nil), payload...)
	m.stats.DataSent++
	return m.seq, m.multicast(&p)
}

func (m *Member) sessionTick() {
	p := wire.Packet{
		Type: wire.TypeHeartbeat, Source: m.cfg.Source, Group: m.cfg.Group,
		Seq: m.seq,
	}
	_ = m.multicast(&p)
	m.stats.SessionsSent++
	m.env.AfterFunc(m.cfg.SessionInterval, m.sessionTick)
}

// Recv implements transport.Handler.
func (m *Member) Recv(from transport.Addr, data []byte) {
	var p wire.Packet
	if err := p.Unmarshal(data); err != nil {
		m.stats.Malformed++
		return
	}
	if p.Group != m.cfg.Group || p.Source != m.cfg.Source {
		return
	}
	switch p.Type {
	case wire.TypeData, wire.TypeRetrans:
		m.onData(&p)
	case wire.TypeHeartbeat:
		m.onSession(&p)
	case wire.TypeNack:
		m.onRequest(&p)
	}
}

func (m *Member) onData(p *wire.Packet) {
	if !m.track.Contacted() && p.Seq > 0 {
		m.track.SetBase(p.Seq - 1)
	}
	recovered := p.Type == wire.TypeRetrans
	if !m.track.Mark(p.Seq) {
		m.stats.Duplicates++
		// A repair we were about to send was beaten by someone else's.
		if recovered {
			m.suppressRepair(p.Seq)
		}
		return
	}
	m.cache[p.Seq] = append([]byte(nil), p.Payload...)
	m.stats.Delivered++
	// Cancel our own pending request; record recovery latency.
	if st := m.reqTimers[p.Seq]; st != nil {
		st.timer.Stop()
		delete(m.reqTimers, p.Seq)
	}
	if at, ok := m.lossAt[p.Seq]; ok {
		m.RecoveryTimes[p.Seq] = m.env.Now().Sub(at)
		delete(m.lossAt, p.Seq)
		m.stats.Recovered++
	}
	if recovered {
		m.suppressRepair(p.Seq)
	}
	if m.cfg.OnData != nil {
		m.cfg.OnData(p.Seq, p.Payload, recovered)
	}
	m.detectLosses(p.Seq)
}

func (m *Member) onSession(p *wire.Packet) {
	if m.track.SetBase(p.Seq) {
		return // first contact: adopt the position, request nothing
	}
	m.detectLosses(p.Seq)
}

// srmWindow bounds how far behind a member will chase repairs; further
// behind it adopts the stream position (bounding the per-seq timer state).
const srmWindow = 2048

// detectLosses schedules randomized repair requests for every hole up to
// hi.
func (m *Member) detectLosses(hi uint64) {
	if hi < m.track.Highest() {
		hi = m.track.Highest()
	}
	if hi > m.track.Contiguous()+srmWindow {
		m.track.Advance(hi - srmWindow)
	}
	now := m.env.Now()
	m.gapScratch = m.track.AppendMissing(m.gapScratch[:0], hi, 0)
	for _, rg := range m.gapScratch {
		for seq := rg.From; seq <= rg.To; seq++ {
			if m.reqTimers[seq] != nil {
				continue
			}
			if _, ok := m.lossAt[seq]; !ok {
				m.lossAt[seq] = now
			}
			m.scheduleRequest(seq, 1)
		}
	}
}

// scheduleRequest arms the randomized request timer (backoff doubles the
// interval on suppression).
func (m *Member) scheduleRequest(seq uint64, mult float64) {
	d := float64(m.cfg.DistanceToSource)
	lo := m.cfg.C1 * d * mult
	span := m.cfg.C2 * d * mult
	wait := time.Duration(lo + m.env.Rand().Float64()*span)
	st := &srmTimer{interval: wait}
	st.timer = m.env.AfterFunc(wait, func() {
		delete(m.reqTimers, seq)
		if m.track.Seen(seq) {
			return
		}
		req := wire.Packet{
			Type: wire.TypeNack, Source: m.cfg.Source, Group: m.cfg.Group,
			Ranges: []wire.SeqRange{{From: seq, To: seq}},
		}
		_ = m.multicast(&req)
		m.stats.RequestsSent++
		// Re-arm with backoff in case the repair never comes.
		m.scheduleRequest(seq, mult*2)
	})
	m.reqTimers[seq] = st
}

// onRequest handles a multicast repair request: suppress our own pending
// request for the same data, and schedule a repair if we hold it.
func (m *Member) onRequest(p *wire.Packet) {
	for _, rg := range p.Ranges {
		for seq := rg.From; seq <= rg.To; seq++ {
			// Request suppression: someone else asked first; back off.
			if st := m.reqTimers[seq]; st != nil {
				st.timer.Stop()
				delete(m.reqTimers, seq)
				m.stats.RequestsSuppressed++
				m.scheduleRequest(seq, 2)
				continue
			}
			if payload, ok := m.cache[seq]; ok && m.repTimers[seq] == nil {
				m.scheduleRepair(seq, payload)
			}
		}
	}
}

func (m *Member) scheduleRepair(seq uint64, payload []byte) {
	d := float64(m.cfg.DistanceToSource)
	wait := time.Duration(m.cfg.D1*d + m.env.Rand().Float64()*m.cfg.D2*d)
	st := &srmTimer{interval: wait}
	st.timer = m.env.AfterFunc(wait, func() {
		delete(m.repTimers, seq)
		rep := wire.Packet{
			Type: wire.TypeRetrans, Flags: wire.FlagRetransmission,
			Source: m.cfg.Source, Group: m.cfg.Group, Seq: seq, Payload: payload,
		}
		_ = m.multicast(&rep)
		m.stats.RepairsSent++
	})
	m.repTimers[seq] = st
}

// suppressRepair cancels our pending repair when another member's repair
// for the same data is heard.
func (m *Member) suppressRepair(seq uint64) {
	if st := m.repTimers[seq]; st != nil {
		st.timer.Stop()
		delete(m.repTimers, seq)
		m.stats.RepairsSuppressed++
	}
}

func (m *Member) multicast(p *wire.Packet) error {
	buf, err := p.Marshal()
	if err != nil {
		return err
	}
	return m.env.Multicast(m.cfg.Group, transport.TTLGlobal, buf)
}
