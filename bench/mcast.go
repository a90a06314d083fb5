package main

import (
	"sync"
	"sync/atomic"
	"time"

	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// fabric emulates IP multicast over unicast for the nodes of one stack:
// loopback multicast is not deliverable on the benchmark box, so a tapped
// node's Join records its unicast address here and Multicast becomes one
// Env.Send per member. TTL scope is ignored (every member is "on site")
// and a member never hears its own transmission.
type fabric struct {
	mu      sync.Mutex // serializes writers; readers load the snapshot
	members atomic.Pointer[map[wire.GroupID][]transport.Addr]
}

func newFabric() *fabric {
	f := &fabric{}
	f.members.Store(&map[wire.GroupID][]transport.Addr{})
	return f
}

// update installs a copy of the membership with g's list replaced by
// edit(old list).
func (f *fabric) update(g wire.GroupID, edit func([]transport.Addr) []transport.Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.members.Load()
	next := make(map[wire.GroupID][]transport.Addr, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[g] = edit(append([]transport.Addr(nil), old[g]...))
	f.members.Store(&next)
}

func (f *fabric) join(g wire.GroupID, a transport.Addr) {
	f.update(g, func(l []transport.Addr) []transport.Addr {
		for _, m := range l {
			if m == a {
				return l
			}
		}
		return append(l, a)
	})
}

func (f *fabric) leave(g wire.GroupID, a transport.Addr) {
	f.update(g, func(l []transport.Addr) []transport.Addr {
		for i, m := range l {
			if m == a {
				return append(l[:i], l[i+1:]...)
			}
		}
		return l
	})
}

func (f *fabric) lookup(g wire.GroupID) []transport.Addr { return (*f.members.Load())[g] }

// splitmix is the seeded generator behind drop schedules and payload
// patterns: tiny, allocation-free, and identical on every platform.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// Drop lanes. A lane is one seeded schedule of bursts of consecutive
// sequence numbers; every tap holding a lane built from the same
// (seed, id) drops exactly the same seqs, which is how a site-wide loss
// hits the secondary and its receivers alike.
const (
	laneSingle = 1 // one receiver only
	laneSite   = 2 // secondary and every receiver
)

type laneConfig struct {
	id                 uint64
	gapMean            int // mean undropped seqs between bursts
	minBurst, maxBurst int // burst length is uniform in [minBurst, maxBurst]
}

func (c laneConfig) meanBurst() float64 { return float64(c.minBurst+c.maxBurst) / 2 }

// share is the fraction of seqs the lane drops.
func (c laneConfig) share() float64 { return c.meanBurst() / (c.meanBurst() + float64(c.gapMean)) }

// laneFor sizes a lane that drops the given share of seqs.
func laneFor(id uint64, share float64, minBurst, maxBurst int) laneConfig {
	c := laneConfig{id: id, minBurst: minBurst, maxBurst: maxBurst}
	c.gapMean = int(c.meanBurst()/share - c.meanBurst() + 0.5)
	return c
}

type lane struct {
	cfg      laneConfig
	rng      splitmix
	from, to uint64 // current burst, inclusive
	last     uint64 // no burst reaches past this seq
}

// newLane schedules drops inside (first, last]: warm-up traffic below and
// the stream's tail above stay untouched, so set-up never waits on a
// recovery and the drain never waits on a heartbeat.
func newLane(seed int64, cfg laneConfig, first, last uint64) *lane {
	l := &lane{cfg: cfg, rng: splitmix(uint64(seed)*0x100 + cfg.id), to: first, last: last}
	l.advance()
	return l
}

func (l *lane) advance() {
	l.from = l.to + 1 + uint64(1+l.rng.intn(2*l.cfg.gapMean-1))
	l.to = l.from + uint64(l.cfg.minBurst-1+l.rng.intn(l.cfg.maxBurst-l.cfg.minBurst+1))
}

// hit reports whether seq is scheduled to drop. Seqs must be offered in
// nondecreasing order for the schedule to apply in full; a late reordered
// seq below the cursor passes.
func (l *lane) hit(seq uint64) bool {
	for seq > l.to {
		l.advance()
	}
	return seq >= l.from && l.to <= l.last
}

// dropRec is one injected drop and, once the repair arrives, its outcome.
type dropRec struct {
	seq       uint64
	at        int64 // ns since the run's clock base
	latency   int64 // drop → redelivery, ns (valid when recovered)
	recovered bool
	path      wire.RecoveryPath
}

// injector drops first transmissions at the receive seam according to its
// lanes and keeps the record the correctness check and the recovery
// latencies are read from. The record is preallocated; when it is full
// the injector stops dropping rather than allocate in the window.
type injector struct {
	lanes []*lane
	drops []dropRec
}

// shouldDrop decides on one decoded datagram. Only first transmissions of
// DATA are eligible: repairs, heartbeats and control always pass, so the
// recovery latency stays unimodal (a lost repair would wait out
// RequestTimeout).
func (in *injector) shouldDrop(p *wire.Packet) bool {
	if p.Type != wire.TypeData || wire.ClassifyRecovery(p.Type, p.Flags) != wire.PathNone {
		return false
	}
	hit := false
	for _, l := range in.lanes { // every lane advances, so cursors stay aligned with the stream
		if l.hit(p.Seq) {
			hit = true
		}
	}
	return hit && len(in.drops) < cap(in.drops)
}

// find returns the record of an injected drop (binary search: drops are
// appended in arrival order, which on loopback is seq order).
func (in *injector) find(seq uint64) *dropRec {
	lo, hi := 0, len(in.drops)
	for lo < hi {
		mid := (lo + hi) / 2
		if in.drops[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(in.drops) && in.drops[lo].seq == seq {
		return &in.drops[lo]
	}
	return nil
}

// tap is the bench-owned transport.Handler wrapper (same shape as
// transport.Trace) every protocol object is started behind. It owns the
// multicast emulation, the drop injector, and — in a traced run — the
// spans and datagram capture. The wrapped handler never knows.
type tap struct {
	inner transport.Handler
	fab   *fabric
	clock *runClock
	self  transport.Addr

	inject *injector
	// onPacket sees every decoded datagram that is about to reach the
	// handler (the sender's tap reads SourceAcks through it).
	onPacket func(p *wire.Packet)
	// path is the recovery path of the datagram being delivered; a
	// receiver's OnData, which runs inside inner.Recv, reads it.
	path wire.RecoveryPath

	dec wire.Decoder
	pkt wire.Packet

	tr *tracer // nil in an untraced run
	// recvKind is the span kind of inner.Recv: spanRecv for a protocol
	// object, spanMux when inner is a shard.Mux.
	recvKind spanKind
}

func newTap(inner transport.Handler, fab *fabric, clock *runClock) *tap {
	return &tap{inner: inner, fab: fab, clock: clock, recvKind: spanRecv}
}

// Start implements transport.Handler.
func (t *tap) Start(env transport.Env) {
	t.self = env.LocalAddr()
	t.inner.Start(&tapEnv{Env: env, t: t})
}

// Recv implements transport.Handler.
func (t *tap) Recv(from transport.Addr, data []byte) {
	tr := t.tr
	root := tr.begin(spanTap)
	p := &t.pkt
	if err := t.dec.Unmarshal(data, p); err != nil {
		// Not ours to judge: the handler counts malformed input itself.
		t.path = wire.PathNone
		t.inner.Recv(from, data)
		tr.end(root)
		return
	}
	tr.tag(root, p)
	if t.inject != nil && t.inject.shouldDrop(p) {
		t.inject.drops = append(t.inject.drops, dropRec{seq: p.Seq, at: t.clock.now()})
		tr.end(root)
		return
	}
	t.path = wire.ClassifyRecovery(p.Type, p.Flags)
	if t.onPacket != nil {
		t.onPacket(p)
	}
	tr.capture(data)
	tr.beginRecv(t.recvKind, p)
	t.inner.Recv(from, data)
	tr.end(root) // closes the handler span with the same clock reading
}

// tapEnv is the Env a tapped handler sees: group membership lives in the
// fabric and a multicast is a unicast fan-out.
type tapEnv struct {
	transport.Env
	t *tap
}

func (e *tapEnv) Join(g wire.GroupID) error {
	e.t.fab.join(g, e.t.self)
	return nil
}

func (e *tapEnv) Leave(g wire.GroupID) error {
	e.t.fab.leave(g, e.t.self)
	return nil
}

func (e *tapEnv) Multicast(g wire.GroupID, ttl int, data []byte) error {
	sp := e.t.tr.beginSend(spanMulticast, data)
	var first error
	for _, m := range e.t.fab.lookup(g) {
		if m == e.t.self {
			continue
		}
		if err := e.Env.Send(m, data); err != nil && first == nil {
			first = err
		}
	}
	e.t.tr.end(sp)
	return first
}

func (e *tapEnv) Send(to transport.Addr, data []byte) error {
	sp := e.t.tr.beginSend(spanSend, data)
	err := e.Env.Send(to, data)
	e.t.tr.end(sp)
	return err
}

func (e *tapEnv) AfterFunc(d time.Duration, fn func()) vtime.Timer {
	tr := e.t.tr
	if tr == nil {
		return e.Env.AfterFunc(d, fn)
	}
	return e.Env.AfterFunc(d, func() {
		sp := tr.begin(spanTimer)
		fn()
		tr.end(sp)
	})
}

var _ transport.Env = (*tapEnv)(nil)
