package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lbrm/internal/core"
	"lbrm/internal/logger"
	"lbrm/internal/obs"
	"lbrm/internal/shard"
	"lbrm/internal/transport"
	"lbrm/internal/transport/udp"
	"lbrm/internal/wire"
)

// udpWorkload is the shape of one real-socket workload.
type udpWorkload struct {
	name      string
	groups    int // streams, striped round-robin by the generator
	shards    int // udp.Nodes per endpoint
	receivers int
	payload   int           // PDU bytes
	obs       bool          // arm obs sinks on every component and node, as -metrics-addr does
	perFrame  int           // open loop: PDUs per frame; 0 selects the closed loop
	frame     time.Duration // open loop: the simulation frame
	window    int           // closed loop: W, the PDUs in flight
	// Drop lanes (nil = none): single hits receiver 0 only, site hits the
	// secondary and every receiver on the same seqs.
	single, site *laneConfig
}

func lanePtr(c laneConfig) *laneConfig { return &c }

// The lossy workload drops its 4 % + 1 % in bursts of 16–64 consecutive
// seqs (8–32 ms outages at 10 PDUs per 5 ms frame), two or three bursts a
// second, not in bursts of 1–8: a receiver runs one recovery episode per
// stream, a gap that opens while the previous episode's retry timer is
// still armed waits for that timer, and every retry that finds a gap
// open doubles the interval and climbs the escalation chain — so loss
// events arriving faster than about one per RequestTimeout end in
// abandoned ranges (OnLost) however quickly each repair is served.
var udpWorkloads = map[string]udpWorkload{
	wlSteady: {
		name: wlSteady, groups: 1, shards: 1, receivers: 2, payload: 256, obs: true, perFrame: 10, frame: 5 * time.Millisecond,
		single: lanePtr(laneFor(laneSingle, 1.0/1024, 1, 1)),
	},
	wlLossy: {
		name: wlLossy, groups: 1, shards: 1, receivers: 2, payload: 256, obs: true, perFrame: 10, frame: 5 * time.Millisecond,
		single: lanePtr(laneFor(laneSingle, 0.04, 16, 64)),
		site:   lanePtr(laneFor(laneSite, 0.01, 16, 64)),
	},
	wlSat: {
		name: wlSat, groups: 8, shards: 2, receivers: 1, payload: 64, window: 256,
	},
}

const (
	// originRing holds send/due times by seq. It must cover every seq
	// whose delivery or ack can still be pending: the sender's retention
	// limit (4096 unacknowledged) plus the closed-loop window.
	originRing = 1 << 13
	// retention bounds both loggers' stores, so resident memory does not
	// grow with run length and eviction is part of the steady state.
	retentionPackets = 1 << 15
	// closedLoopMaxRate sizes the per-stream delivery bitmaps of a closed
	// loop (PDU/s over all streams); the generator stops at the cap.
	closedLoopMaxRate = 1 << 20
	// tailGuard keeps the injector off a stream's last seqs, whose loss
	// only a heartbeat would reveal.
	tailGuard = 100
	// payloadHeader is stream (u32), pad (u32), seq (u64).
	payloadHeader = 16

	// Recovery timers. The protocol's defaults (10 ms / 250 ms at the
	// receiver, 20 ms / 500 ms at the secondary and the primary) are sized
	// for a WAN and a low-rate stream; at thousands of PDU/s a gap left
	// open for 250 ms parks hundreds of out-of-order seqs in the tracker,
	// whose per-arrival gap scan grows with them, and a primary that waits
	// 500 ms to re-ask the source for one packet the kernel dropped holds
	// its cumulative ack still until the sender's retention (4 096) is
	// full. These keep the defaults' ratios at loopback scale: the receiver
	// asks before the secondary fetches, so a site-wide loss still takes
	// the primary-callback path.
	receiverNackDelay       = 2 * time.Millisecond
	receiverRequestTimeout  = 8 * time.Millisecond
	secondaryNackDelay      = 4 * time.Millisecond
	secondaryRequestTimeout = 16 * time.Millisecond
	primaryNackDelay        = 2 * time.Millisecond
	primaryRequestTimeout   = 8 * time.Millisecond
	// recoveryRetries is the receiver's per-tier retry budget (default 3).
	// LBRM gives a range up once its whole escalation chain has been asked
	// in vain, and a retry counts as vain whenever any gap is open when it
	// fires; after a hypervisor stall has overflowed every socket buffer at
	// once, fresh gaps keep the chain climbing. Eight retries per tier keep
	// a receiver asking for over a second before it reports OnLost.
	recoveryRetries = 8
)

// stackOpts are the per-run parameters of a stack.
type stackOpts struct {
	seed   int64
	warmup int           // PDUs delivered everywhere before the window
	window time.Duration // measured window (sizes schedules and bitmaps)
	traced bool
}

// txStream is the generator's side of one stream: what was sent, when it
// was due, and what the primary has acknowledged.
type txStream struct {
	group   wire.GroupID
	sender  *core.Sender
	node    *udp.Node
	tap     *tap   // the sender node's
	pattern []byte // seed-derived; a PDU carries it rotated by seq
	buf     []byte // payload scratch

	sent     atomic.Uint64
	maxSeq   uint64 // bitmap capacity; the generator never sends past it
	sendErrs uint64
	seqSkew  uint64 // Send returned another seq than the payload carries

	origin [originRing]atomic.Int64 // due (open loop) or Send-entry (closed) time by seq

	acked       uint64 // sender-tap owned
	ackLat      histogram
	retainedMax int
}

// fill writes the PDU for seq into t.buf.
func (t *txStream) fill(seq uint64) {
	binary.BigEndian.PutUint32(t.buf[0:], uint32(t.group))
	binary.BigEndian.PutUint32(t.buf[4:], 0)
	binary.BigEndian.PutUint64(t.buf[8:], seq)
	body := t.buf[payloadHeader:]
	off := int(seq % uint64(len(t.pattern)))
	n := copy(body, t.pattern[off:])
	copy(body[n:], t.pattern)
}

// verify reports whether payload is exactly the PDU sent as seq.
func (t *txStream) verify(payload []byte, seq uint64) bool {
	if len(payload) != len(t.buf) ||
		binary.BigEndian.Uint32(payload[0:]) != uint32(t.group) ||
		binary.BigEndian.Uint64(payload[8:]) != seq {
		return false
	}
	body := payload[payloadHeader:]
	off := int(seq % uint64(len(t.pattern)))
	n := len(t.pattern) - off
	return bytes.Equal(body[:n], t.pattern[off:]) && bytes.Equal(body[n:], t.pattern[:off])
}

// rxStream is one receiver's side of one stream: the exactly-once ledger
// and the first-transmission latency samples. Its node's goroutines own
// it; delivered is the only field read from outside.
type rxStream struct {
	s   *stack
	tx  *txStream
	tap *tap
	rx  *rxEndpoint

	seen      []uint64 // bitmap by seq
	delivered atomic.Uint64
	repaired  uint64 // deliveries with Retransmitted set
	stray     uint64 // repaired seqs the injector never dropped (kernel loss)
	dups      uint64
	corrupt   uint64
	overflow  uint64 // seqs beyond the bitmap
	lost      uint64 // seqs reported through OnLost
	lat       histogram
}

// rxEndpoint is one receiver endpoint's delivery count over all streams.
type rxEndpoint struct{ delivered atomic.Int64 }

func (r *rxStream) onData(ev core.Event) {
	tr := r.tap.tr
	sp := tr.begin(spanOnData)
	now, ok := tr.startOf(sp)
	if !ok {
		now = r.s.clock.now()
	}
	seq := ev.Seq
	switch {
	case seq == 0 || seq > r.tx.maxSeq:
		r.overflow++
	case r.seen[seq/64]&(1<<(seq%64)) != 0:
		r.dups++
	default:
		r.seen[seq/64] |= 1 << (seq % 64)
		if !r.tx.verify(ev.Payload, seq) {
			r.corrupt++
		}
		if ev.Retransmitted {
			r.repaired++
			var rec *dropRec
			if r.tap.inject != nil {
				rec = r.tap.inject.find(seq)
			}
			if rec != nil && !rec.recovered {
				rec.recovered, rec.latency, rec.path = true, now-rec.at, r.tap.path
			} else {
				r.stray++
			}
		} else {
			r.lat.add(now - r.tx.origin[seq%originRing].Load())
		}
		r.delivered.Add(1)
		r.rx.delivered.Add(1)
		r.s.progress()
	}
	tr.end(sp)
}

func (r *rxStream) onLost(_ core.StreamKey, rg wire.SeqRange) { r.lost += rg.Count() }

// endpoint is one protocol role's sockets: a shard.Fleet of tapped nodes.
type endpoint struct {
	role  string
	fleet *shard.Fleet
	taps  []*tap    // by shard
	sink  *obs.Sink // components and nodes; nil when obs is off
}

func (e *endpoint) addr(g wire.GroupID) transport.Addr { return e.fleet.NodeFor(g).Addr() }

// stack is one workload's protocol objects on loopback sockets.
type stack struct {
	w      udpWorkload
	o      stackOpts
	clock  *runClock
	fab    *fabric
	groups map[wire.GroupID]string

	primary, secondary, sender *endpoint
	receivers                  []*endpoint
	all                        []*endpoint

	tx          []*txStream   // by group index (group = index+1)
	rx          [][]*rxStream // [receiver][group index]
	rxEndpoints []*rxEndpoint
	primaries   []*logger.Primary
	secondaries []*logger.Secondary
	rcvs        [][]*core.Receiver

	sentTotal  atomic.Int64
	ackedTotal atomic.Int64
	// waitBelow is the outstanding count a blocked generator is waiting
	// for (-1: nobody waits); whoever makes progress past it sends wake.
	waitBelow atomic.Int64
	wake      chan struct{}

	traceFull atomic.Bool
	capped    bool       // the closed loop ran a stream into its bitmap capacity
	late      histogram  // open-loop generator lateness
	points    []progress // the window's slice boundaries
	closed    bool
}

// outstanding is the number of PDUs sent but not yet delivered by every
// receiver and acknowledged by the primary. The closed loop counts the
// primary too because the sender does: past 4 096 unacknowledged PDUs
// Send fails, and with only the receivers pacing it the generator gets
// there within seconds (the sender's read loop waits behind the
// generator for the node lock, so acks are the slowest path).
func (s *stack) outstanding() int64 {
	low := s.ackedTotal.Load()
	for _, r := range s.rxEndpoints {
		if d := r.delivered.Load(); d < low {
			low = d
		}
	}
	return s.sentTotal.Load() - low
}

// progress wakes a generator blocked in waitOutstanding once its
// condition holds. Called from node goroutines after every delivery and
// ack; it is one atomic load while nobody waits.
func (s *stack) progress() {
	th := s.waitBelow.Load()
	if th >= 0 && s.outstanding() <= th && s.waitBelow.CompareAndSwap(th, -1) {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// waitOutstanding blocks until at most th PDUs are outstanding or the
// deadline (run-clock ns) passes, and reports which.
func (s *stack) waitOutstanding(th int64, deadline int64) bool {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if s.outstanding() <= th {
			return true
		}
		left := time.Duration(deadline - s.clock.now())
		if left <= 0 {
			return false
		}
		s.waitBelow.Store(th)
		if s.outstanding() <= th { // progress may have run before the store
			s.waitBelow.Store(-1)
			return true
		}
		timer.Reset(left)
		select {
		case <-s.wake:
		case <-timer.C:
		}
		s.waitBelow.Store(-1)
	}
}

// startEndpoint starts one role's fleet. mk builds the protocol object
// for one group behind the shard's tap, configured with sink (nil when
// the workload runs with obs off).
func (s *stack) startEndpoint(role string, mk func(g wire.GroupID, t *tap, sink *obs.Sink) (transport.Handler, error)) (*endpoint, error) {
	ep := &endpoint{role: role}
	var compSink *obs.Sink
	if s.w.obs {
		compSink = obs.NewSink()
	}
	ep.sink = compSink
	if ep.sink == nil && s.o.traced {
		// The traced run reads batch sizes off the node's own obs tracks,
		// so a workload that runs with obs off still arms the node sink
		// there (and only there).
		ep.sink = obs.NewSink()
	}
	var mkErr error
	fleet, err := shard.Start(shard.Config{
		Shards: s.w.shards,
		Groups: s.groups,
		Node: udp.Config{
			Listen: "127.0.0.1:0",
			Obs:    ep.sink,
			Seed:   s.o.seed<<8 | int64(len(s.all)+1),
		},
	}, func(sh int, gs []wire.GroupID) transport.Handler {
		t := newTap(nil, s.fab, s.clock)
		if s.o.traced {
			t.tr = newTracer(fmt.Sprintf("%s.%d", role, sh), s.clock, s.spansPerNode(), traceArenaBytes, &s.traceFull)
		}
		hs := make(map[wire.GroupID]transport.Handler, len(gs))
		for _, g := range gs {
			h, err := mk(g, t, compSink)
			if err != nil {
				mkErr = err
				h = transport.NewHandlerFunc(func(transport.Env, transport.Addr, []byte) {})
			}
			if t.tr != nil && len(gs) > 1 {
				h = &routedHandler{inner: h, tap: t}
			}
			hs[g] = h
		}
		if len(gs) == 1 {
			t.inner = hs[gs[0]]
		} else {
			t.inner = shard.NewMux(hs, nil)
			t.recvKind = spanMux
		}
		ep.taps = append(ep.taps, t)
		return t
	})
	if err == nil && mkErr != nil {
		fleet.Close()
		err = mkErr
	}
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	ep.fleet = fleet
	s.all = append(s.all, ep)
	return ep, nil
}

// routedHandler records the span of a protocol object behind a shard.Mux,
// so the Mux's own routing time is what remains of the spanMux around it.
type routedHandler struct {
	inner transport.Handler
	tap   *tap
}

func (h *routedHandler) Start(env transport.Env) { h.inner.Start(env) }
func (h *routedHandler) Recv(from transport.Addr, data []byte) {
	sp := h.tap.tr.beginRecv(spanRecv, &h.tap.pkt)
	h.inner.Recv(from, data)
	h.tap.tr.end(sp)
}

// spansPerNode sizes a traced node's span buffer: no node records more
// than six spans per PDU it handles.
func (s *stack) spansPerNode() int {
	pdus := float64(s.o.warmup) + s.o.window.Seconds()*tracedClosedLoopRate
	if s.w.perFrame > 0 {
		pdus = float64(s.o.warmup) + float64(s.o.window/s.w.frame)*float64(s.w.perFrame)
	}
	return int(pdus)*6 + 1<<16
}

// plannedSeqs is the most PDUs one stream can carry in this run.
func (s *stack) plannedSeqs() uint64 {
	perStreamWarm := uint64(s.o.warmup/s.w.groups + 1)
	if s.w.perFrame > 0 {
		frames := uint64(s.o.window / s.w.frame)
		return perStreamWarm + frames*uint64(s.w.perFrame)/uint64(s.w.groups) + 1
	}
	return perStreamWarm + uint64(s.o.window.Seconds()*closedLoopMaxRate)/uint64(s.w.groups) + 1
}

// newInjector builds the drop injector for a tap of a lossy workload.
func (s *stack) newInjector(lanes ...*laneConfig) *injector {
	var in *injector
	first := uint64(s.o.warmup/s.w.groups + 1)
	last := s.plannedSeqs()
	if s.w.perFrame == 0 || last < first+tailGuard {
		return nil // closed loops and stub windows inject nothing
	}
	last -= tailGuard
	expect := 0.0
	for _, c := range lanes {
		if c == nil {
			continue
		}
		if in == nil {
			in = &injector{}
		}
		in.lanes = append(in.lanes, newLane(s.o.seed, *c, first, last))
		expect += float64(last-first) * c.share()
	}
	if in != nil {
		in.drops = make([]dropRec, 0, int(expect*1.5)+64)
	}
	return in
}

// buildStack binds every socket and starts every handler. Nothing has
// been sent when it returns.
func buildStack(w udpWorkload, o stackOpts) (s *stack, err error) {
	if (w.single != nil || w.site != nil) && w.groups != 1 {
		return nil, errors.New("bench: drop lanes need a single-stream workload")
	}
	s = &stack{w: w, o: o, clock: &runClock{base: time.Now()}, fab: newFabric(), wake: make(chan struct{}, 1)}
	s.points = make([]progress, 0, int(o.window/sliceLength)+3)
	s.waitBelow.Store(-1)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.groups, err = shard.GroupSpecs("239.9.9.9:7000", w.groups); err != nil {
		return nil, err
	}
	ret := logger.Retention{MaxPackets: retentionPackets}

	s.primaries = make([]*logger.Primary, w.groups)
	s.primary, err = s.startEndpoint("primary", func(g wire.GroupID, t *tap, sink *obs.Sink) (transport.Handler, error) {
		p := logger.NewPrimary(logger.PrimaryConfig{
			Group: g, Retention: ret, Obs: sink,
			NackDelay: primaryNackDelay, RequestTimeout: primaryRequestTimeout,
		})
		s.primaries[g-1] = p
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	s.secondaries = make([]*logger.Secondary, w.groups)
	s.secondary, err = s.startEndpoint("secondary", func(g wire.GroupID, t *tap, sink *obs.Sink) (transport.Handler, error) {
		sec := logger.NewSecondary(logger.SecondaryConfig{
			Group: g, Primary: s.primary.addr(g), Retention: ret, Obs: sink,
			NackDelay: secondaryNackDelay, RequestTimeout: secondaryRequestTimeout,
		})
		s.secondaries[g-1] = sec
		t.inject = s.newInjector(w.site)
		return sec, nil
	})
	if err != nil {
		return nil, err
	}

	seeds := splitmix(uint64(o.seed))
	maxSeq := s.plannedSeqs()
	for g := 1; g <= w.groups; g++ {
		t := &txStream{group: wire.GroupID(g), maxSeq: maxSeq, buf: make([]byte, w.payload)}
		t.pattern = make([]byte, w.payload-payloadHeader)
		for i := range t.pattern {
			t.pattern[i] = byte(seeds.next())
		}
		s.tx = append(s.tx, t)
	}

	for r := 0; r < w.receivers; r++ {
		rxe := &rxEndpoint{}
		streams := make([]*rxStream, w.groups)
		rcvs := make([]*core.Receiver, w.groups)
		ep, err := s.startEndpoint(fmt.Sprintf("receiver%d", r), func(g wire.GroupID, t *tap, sink *obs.Sink) (transport.Handler, error) {
			rs := &rxStream{s: s, tx: s.tx[g-1], tap: t, rx: rxe, seen: make([]uint64, maxSeq/64+1)}
			streams[g-1] = rs
			if r == 0 {
				t.inject = s.newInjector(w.single, w.site)
			} else {
				t.inject = s.newInjector(w.site)
			}
			rcv := core.NewReceiver(core.ReceiverConfig{
				Group: g, Secondary: s.secondary.addr(g), Primary: s.primary.addr(g),
				NackDelay: receiverNackDelay, RequestTimeout: receiverRequestTimeout,
				SecondaryRetries: recoveryRetries, PrimaryRetries: recoveryRetries,
				OnData: rs.onData, OnLost: rs.onLost, Obs: sink,
			})
			rcvs[g-1] = rcv
			return rcv, nil
		})
		if err != nil {
			return nil, err
		}
		s.receivers = append(s.receivers, ep)
		s.rx = append(s.rx, streams)
		s.rxEndpoints = append(s.rxEndpoints, rxe)
		s.rcvs = append(s.rcvs, rcvs)
	}

	s.sender, err = s.startEndpoint("sender", func(g wire.GroupID, t *tap, sink *obs.Sink) (transport.Handler, error) {
		snd, err := core.NewSender(core.SenderConfig{
			Source: wire.SourceID(g), Group: g, Primary: s.primary.addr(g), Obs: sink,
		})
		if err != nil {
			return nil, err
		}
		s.tx[g-1].sender, s.tx[g-1].tap = snd, t
		t.onPacket = s.onSenderPacket
		return snd, nil
	})
	if err != nil {
		return nil, err
	}
	for _, t := range s.tx {
		t.node = s.sender.fleet.NodeFor(t.group)
	}
	return s, nil
}

// onSenderPacket reads SourceAcks on their way into a Sender: every seq
// an ack newly covers gets its origin → ack latency.
func (s *stack) onSenderPacket(p *wire.Packet) {
	if p.Type != wire.TypeSourceAck || p.Group == 0 || int(p.Group) > len(s.tx) {
		return
	}
	t := s.tx[p.Group-1]
	upTo := p.Seq
	if sent := t.sent.Load(); upTo > sent {
		upTo = sent
	}
	if upTo <= t.acked {
		return
	}
	now := s.clock.now()
	for seq := t.acked + 1; seq <= upTo; seq++ {
		t.ackLat.add(now - t.origin[seq%originRing].Load())
	}
	s.ackedTotal.Add(int64(upTo - t.acked))
	t.acked = upTo
	s.progress()
}

// close stops every node. It returns once all of their goroutines have
// exited, after which the protocol objects may be read without a lock.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ep := range s.all {
		ep.fleet.Close() // a loopback socket's close error changes nothing here
	}
}
