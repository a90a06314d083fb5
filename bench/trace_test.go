package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbrm/internal/wire"
)

func sp(kind spanKind, parent int32, start, end int64) span {
	return span{kind: kind, parent: parent, start: start, dur: end - start}
}

func TestReduceSelfOnASyntheticTree(t *testing.T) {
	// tap[0,100] ─ recv[10,90] ─┬ on_data[20,30]
	//                           ├ env_send[40,70]
	//                           └ env_send[70,80]
	// timer[200,260] ─ env_multicast[210,250]
	spans := []span{
		sp(spanTap, -1, 0, 100),
		sp(spanRecv, 0, 10, 90),
		sp(spanOnData, 1, 20, 30),
		sp(spanSend, 1, 40, 70),
		sp(spanSend, 1, 70, 80),
		sp(spanTimer, -1, 200, 260),
		sp(spanMulticast, 5, 210, 250),
	}
	self, err := reduceSelf(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{20, 30, 10, 30, 10, 20, 40}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self[%d] = %d, want %d (all: %v)", i, self[i], want[i], self)
		}
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 100+60 {
		t.Fatalf("self times sum to %d, want the roots' 160", total)
	}
}

func TestReduceSelfRejectsBrokenTrees(t *testing.T) {
	cases := map[string][]span{
		"orphan: parent out of range":   {sp(spanRecv, 3, 0, 10)},
		"orphan: parent not earlier":    {sp(spanTap, -1, 0, 100), sp(spanRecv, 1, 10, 20)},
		"orphan: negative parent":       {sp(spanRecv, -2, 0, 10)},
		"child reaches past its parent": {sp(spanTap, -1, 0, 100), sp(spanRecv, 0, 50, 120)},
		"child starts before parent":    {sp(spanTap, -1, 50, 100), sp(spanRecv, 0, 40, 60)},
		"siblings overlap":              {sp(spanRecv, -1, 0, 100), sp(spanSend, 0, 10, 50), sp(spanSend, 0, 40, 60)},
		"span never ended":              {{kind: spanRecv, parent: -1, start: 5, dur: -1}},
	}
	for name, spans := range cases {
		if _, err := reduceSelf(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTracerNestsTagsAndCaptures(t *testing.T) {
	var full atomic.Bool
	tr := newTracer("receiver0.0", &runClock{base: time.Now()}, 4, 60, &full)
	root := tr.begin(spanTap)
	child := tr.beginRecv(spanRecv, &wire.Packet{Type: wire.TypeData, Group: 3, Seq: 99})
	leaf := tr.begin(spanOnData)
	tr.end(leaf)
	// The VM freezes inside the handler: a span longer than 2^31 ns must
	// still reduce (a 32-bit duration wrapped into "never ended").
	tr.clock.base = tr.clock.base.Add(-3 * time.Second)
	tr.end(root) // closes child too
	if len(tr.open) != 0 {
		t.Fatalf("%d spans still open", len(tr.open))
	}
	if d := time.Duration(tr.spans[root].dur); d < 3*time.Second {
		t.Fatalf("root span lasted %v, want over 3 s", d)
	}
	if tr.spans[child].parent != root || tr.spans[leaf].parent != child {
		t.Fatal("parents do not follow the nesting")
	}
	if s := tr.spans[child]; s.seq != 99 || s.stream != 3 || s.ptype != wire.TypeData {
		t.Fatalf("recv span tagged %+v", s)
	}
	if _, err := reduceSelf(tr.spans); err != nil {
		t.Fatal(err)
	}
	tr.begin(spanTimer)
	if ref := tr.begin(spanTimer); ref != -1 || !full.Load() {
		t.Fatal("a full buffer must refuse the span and raise full")
	}

	tr.capture(bytes.Repeat([]byte{7}, 30))
	tr.capture(bytes.Repeat([]byte{8}, 30)) // does not fit in 60 bytes any more
	var got [][]byte
	tr.captured(func(d []byte) { got = append(got, d) })
	if len(got) != 1 || len(got[0]) != 30 || got[0][0] != 7 {
		t.Fatalf("captured %v", got)
	}
	tr.reset()
	if len(tr.spans) != 0 || len(tr.arena) != 0 {
		t.Fatal("reset kept records")
	}

	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spanTap)) // an untraced run: every call is a no-op
	nilTracer.capture([]byte{1})
}

func TestWriteJSONL(t *testing.T) {
	var full atomic.Bool
	tr := newTracer("primary.0", &runClock{base: time.Now()}, 8, 0, &full)
	root := tr.begin(spanTap)
	tr.beginRecv(spanRecv, &wire.Packet{Type: wire.TypeNack, Group: 2, Seq: 0})
	tr.end(root)
	var buf bytes.Buffer
	if err := writeJSONL(&buf, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var rec struct {
		Node, Name, Type string
		ID, Parent       int
		StartNS          int64 `json:"start_ns"`
		EndNS            int64 `json:"end_ns"`
		Stream, Seq      uint64
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Node != "primary.0" || rec.Name != "recv" || rec.Type != "NACK" || rec.Parent != 0 || rec.ID != 1 || rec.Stream != 2 || rec.EndNS < rec.StartNS {
		t.Fatalf("span line decoded as %+v", rec)
	}
}
