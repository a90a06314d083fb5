package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"lbrm/internal/wire"
)

// runClock is the monotonic clock every timestamp of a run is read from,
// as nanoseconds since base.
type runClock struct{ base time.Time }

func (c *runClock) now() int64 { return int64(time.Since(c.base)) }

// spanKind names what a span encloses. Handler kinds are the layers'
// time; harness kinds are the benchmark's own; env kinds are calls down
// into the transport.
type spanKind uint8

const (
	spanTap       spanKind = iota // harness: tap.Recv (decode, inject) around the handler
	spanRecv                      // handler: Handler.Recv of a protocol object
	spanMux                       // handler: shard.Mux.Recv (its child is the routed spanRecv)
	spanTimer                     // handler: an AfterFunc callback
	spanSendCall                  // handler: Sender.Send entered from the generator
	spanSend                      // env: Env.Send
	spanMulticast                 // env: Env.Multicast (the unicast fan-out)
	spanOnData                    // harness: the application delivery callback
	spanGen                       // harness: one generator critical section
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"tap", "recv", "mux", "timer", "send_call", "env_send", "env_multicast", "on_data", "gen",
}

func (k spanKind) harness() bool { return k == spanTap || k == spanOnData || k == spanGen }
func (k spanKind) handler() bool {
	return k == spanRecv || k == spanMux || k == spanTimer || k == spanSendCall
}

// span is one timed interval. parent indexes the same tracer's buffer
// (-1 for a root); stream/seq/ptype identify the packet the span worked
// on (zero when it had none, e.g. a timer).
type span struct {
	start  int64 // ns since the run clock's base
	dur    int64 // ns; -1 while open (64 bits: a handler that sat out a VM freeze may span seconds)
	parent int32
	seq    uint32
	stream uint16
	kind   spanKind
	ptype  wire.Type
}

func (s span) end() int64 { return s.start + s.dur }

// tracer is one node's span buffer and capture of the datagrams that
// reached it. All of a node's callbacks run under the node mutex, so the
// tracer needs no lock of its own. Both stores are preallocated: a full
// span buffer raises full (the run loop ends the traced window), a full
// capture arena just stops capturing — the replay stage only needs a
// sample, and every datagram is inbound at some node.
//
// Every method is a no-op on a nil tracer, so untraced code paths pay one
// predictable branch.
type tracer struct {
	role  string // "sender", "primary", "secondary", "receiver0", ...
	clock *runClock
	spans []span
	open  []int32 // stack of open span indices
	full  *atomic.Bool

	arena []byte // captured datagrams: u16 length, bytes

	dec wire.Decoder
	pkt wire.Packet
}

func newTracer(role string, clock *runClock, maxSpans, arenaBytes int, full *atomic.Bool) *tracer {
	tr := &tracer{
		role: role, clock: clock, full: full,
		spans: make([]span, 0, maxSpans),
		open:  make([]int32, 0, 16),
		arena: make([]byte, arenaBytes),
	}
	// Touch the arena now: copying a window's first datagrams into fresh
	// pages would bill the page faults to the traced window.
	for i := 0; i < len(tr.arena); i += 4096 {
		tr.arena[i] = 1
	}
	tr.arena = tr.arena[:0]
	return tr
}

// reset forgets what was recorded so far (the warm-up's traffic), so the
// buffers hold the measured window only. No span may be open.
func (tr *tracer) reset() {
	tr.spans, tr.arena = tr.spans[:0], tr.arena[:0]
}

// begin opens a span under the innermost open one. It returns -1 (which
// end ignores) on a nil tracer or a full buffer.
func (tr *tracer) begin(kind spanKind) int32 {
	if tr == nil {
		return -1
	}
	if len(tr.spans) == cap(tr.spans) {
		tr.full.Store(true)
		return -1
	}
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	ref := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{start: tr.clock.now(), dur: -1, parent: parent, kind: kind})
	tr.open = append(tr.open, ref)
	return ref
}

// end closes ref and everything opened inside it that is still open.
func (tr *tracer) end(ref int32) {
	if tr == nil || ref < 0 {
		return
	}
	now := tr.clock.now()
	for n := len(tr.open); n > 0; n-- {
		top := tr.open[n-1]
		tr.open = tr.open[:n-1]
		tr.spans[top].dur = now - tr.spans[top].start
		if top == ref {
			return
		}
	}
}

// tag records which packet a span worked on.
func (tr *tracer) tag(ref int32, p *wire.Packet) {
	if tr == nil || ref < 0 {
		return
	}
	s := &tr.spans[ref]
	s.seq, s.stream, s.ptype = uint32(p.Seq), uint16(p.Group), p.Type
}

// tagSeq is tag for a packet the caller knows without having decoded it.
func (tr *tracer) tagSeq(ref int32, g wire.GroupID, seq uint64, t wire.Type) {
	if tr == nil || ref < 0 {
		return
	}
	s := &tr.spans[ref]
	s.seq, s.stream, s.ptype = uint32(seq), uint16(g), t
}

// beginRecv opens the handler span for a decoded inbound datagram.
func (tr *tracer) beginRecv(kind spanKind, p *wire.Packet) int32 {
	ref := tr.begin(kind)
	tr.tag(ref, p)
	return ref
}

// beginSend opens the env span of an outbound datagram, tagged from the
// datagram's own header.
func (tr *tracer) beginSend(kind spanKind, data []byte) int32 {
	if tr == nil {
		return -1
	}
	ref := tr.begin(kind)
	if tr.dec.Unmarshal(data, &tr.pkt) == nil {
		tr.tag(ref, &tr.pkt)
	}
	return ref
}

// capture keeps a copy of an inbound datagram.
func (tr *tracer) capture(data []byte) {
	if tr == nil || len(tr.arena)+2+len(data) > cap(tr.arena) {
		return
	}
	tr.arena = binary.BigEndian.AppendUint16(tr.arena, uint16(len(data)))
	tr.arena = append(tr.arena, data...)
}

// captured calls fn for every captured datagram, in arrival order. The
// slice aliases the arena.
func (tr *tracer) captured(fn func(data []byte)) {
	if tr == nil {
		return
	}
	for a := tr.arena; len(a) >= 2; {
		n := int(binary.BigEndian.Uint16(a))
		fn(a[2 : 2+n])
		a = a[2+n:]
	}
}

// startOf returns an open span's start time, so a caller that needs "now"
// right after begin does not read the clock twice.
func (tr *tracer) startOf(ref int32) (int64, bool) {
	if tr == nil || ref < 0 {
		return 0, false
	}
	return tr.spans[ref].start, true
}

// reduceSelf returns every span's self time: its duration minus the part
// its direct children cover. It rejects a buffer that is not a forest of
// properly nested intervals — an orphan (parent missing or not earlier in
// the buffer), a child reaching outside its parent, or siblings that
// overlap — because self time is meaningless on one.
func reduceSelf(spans []span) ([]int64, error) {
	self := make([]int64, len(spans))
	lastChildEnd := make([]int64, len(spans)) // per parent: where its latest child ended
	for i, s := range spans {
		if s.dur < 0 {
			return nil, fmt.Errorf("span %d (%s) never ended", i, spanKindNames[s.kind])
		}
		self[i] += s.dur
		lastChildEnd[i] = s.start
		if s.parent == -1 {
			continue
		}
		if s.parent < 0 || int(s.parent) >= i {
			return nil, fmt.Errorf("span %d (%s) is an orphan: parent %d", i, spanKindNames[s.kind], s.parent)
		}
		p := spans[s.parent]
		if s.start < p.start || s.end() > p.end() {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] reaches outside its parent %d [%d,%d]",
				i, spanKindNames[s.kind], s.start, s.end(), s.parent, p.start, p.end())
		}
		if s.start < lastChildEnd[s.parent] {
			return nil, fmt.Errorf("span %d (%s) overlaps an earlier child of span %d", i, spanKindNames[s.kind], s.parent)
		}
		lastChildEnd[s.parent] = s.end()
		self[s.parent] -= s.dur
	}
	return self, nil
}

// typeName names a span's packet type ("" when it had no packet).
func typeName(t wire.Type) string {
	if t == wire.TypeInvalid {
		return ""
	}
	return t.String()
}

// writeJSONL writes one line per span: the trace a reader can load into
// any tool. Spans of one packet share stream and seq.
func writeJSONL(w io.Writer, tracers []*tracer) error {
	bw := bufio.NewWriter(w)
	for _, tr := range tracers {
		for i, s := range tr.spans {
			if _, err := fmt.Fprintf(bw,
				`{"node":%q,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"stream":%d,"seq":%d,"type":%q}`+"\n",
				tr.role, i, spanKindNames[s.kind], s.start, s.end(), s.parent, s.stream, s.seq, typeName(s.ptype)); err != nil {
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
