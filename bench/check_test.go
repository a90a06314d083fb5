package main

import (
	"strings"
	"testing"
	"time"

	"lbrm/internal/core"
	"lbrm/internal/wire"
)

// handLedger builds one stream with two receivers by hand and delivers
// seqs 1..n to both through the real OnData path. mutate may suppress or
// alter a delivery: it returns false to swallow the event.
func handLedger(t *testing.T, n uint64, mutate func(receiver int, ev *core.Event) bool) ledger {
	t.Helper()
	s := &stack{clock: &runClock{base: time.Now()}, wake: make(chan struct{}, 1)}
	s.waitBelow.Store(-1)
	tx := &txStream{group: 1, maxSeq: n + 10, buf: make([]byte, 64), pattern: make([]byte, 64-payloadHeader)}
	seeds := splitmix(42)
	for i := range tx.pattern {
		tx.pattern[i] = byte(seeds.next())
	}
	tx.sent.Store(n)
	l := ledger{tx: []*txStream{tx}, drained: true}
	for r := 0; r < 2; r++ {
		rxe := &rxEndpoint{}
		s.rxEndpoints = append(s.rxEndpoints, rxe)
		rs := &rxStream{s: s, tx: tx, tap: &tap{}, rx: rxe, seen: make([]uint64, tx.maxSeq/64+1)}
		l.rx = append(l.rx, []*rxStream{rs})
		for seq := uint64(1); seq <= n; seq++ {
			tx.fill(seq)
			ev := core.Event{Stream: core.StreamKey{Source: 1, Group: 1}, Seq: seq, Payload: append([]byte(nil), tx.buf...)}
			if mutate == nil || mutate(r, &ev) {
				rs.onData(ev)
			}
		}
	}
	return l
}

func judged(l ledger) *report {
	rep := &report{workload: wlSteady}
	l.judge(rep)
	return rep
}

func wantProblem(t *testing.T, rep *report, substr string) {
	t.Helper()
	for _, p := range rep.problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Fatalf("check did not trip on %q; problems: %v", substr, rep.problems)
}

func TestCheckPassesACleanRun(t *testing.T) {
	rep := judged(handLedger(t, 500, nil))
	if len(rep.problems) != 0 || rep.failed != 0 || rep.attempted != 1000 {
		t.Fatalf("clean run judged attempted=%d failed=%d problems=%v", rep.attempted, rep.failed, rep.problems)
	}
}

func TestCheckTripsOnASuppressedDelivery(t *testing.T) {
	rep := judged(handLedger(t, 500, func(r int, ev *core.Event) bool { return !(r == 1 && ev.Seq == 321) }))
	wantProblem(t, rep, "receiver 1 stream 1: 1 of 500 seqs never delivered")
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.failed)
	}
}

func TestCheckTripsOnACorruptedPayload(t *testing.T) {
	rep := judged(handLedger(t, 500, func(r int, ev *core.Event) bool {
		if r == 0 && ev.Seq == 77 {
			ev.Payload[40] ^= 0x01
		}
		return true
	}))
	wantProblem(t, rep, "receiver 0 stream 1: 1 payloads differ")
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.failed)
	}
}

func TestCheckTripsOnDuplicatesLossAndOpenDrops(t *testing.T) {
	l := handLedger(t, 100, nil)
	rs := l.rx[0][0]
	rs.tx.fill(50)
	rs.onData(core.Event{Seq: 50, Payload: rs.tx.buf})
	rs.onLost(core.StreamKey{}, wire.SeqRange{From: 7, To: 9})
	l.injectors = []*injector{{drops: []dropRec{{seq: 10, recovered: true}, {seq: 11}}}}
	l.drained = false
	l.tx[0].sendErrs = 2
	rep := judged(l)
	for _, want := range []string{"delivered twice", "3 seqs reported through OnLost", "1 of 2 dropped seqs never came back", "drain:", "2 Send errors"} {
		wantProblem(t, rep, want)
	}
}

// TestRepairIsMatchedToItsDrop: a delivery with Retransmitted set closes
// the injector's record with the path its datagram took; one the injector
// never dropped counts as stray (kernel loss), not as an error.
func TestRepairIsMatchedToItsDrop(t *testing.T) {
	l := handLedger(t, 10, func(r int, ev *core.Event) bool { return ev.Seq != 4 && ev.Seq != 6 })
	rs := l.rx[0][0]
	rs.tap.inject = &injector{drops: []dropRec{{seq: 4, at: 0}}}
	rs.tap.path = wire.PathPrimaryCallback
	for _, seq := range []uint64{4, 6} {
		rs.tx.fill(seq)
		rs.onData(core.Event{Seq: seq, Payload: rs.tx.buf, Retransmitted: true})
	}
	d := rs.tap.inject.drops[0]
	if !d.recovered || d.path != wire.PathPrimaryCallback || d.latency <= 0 {
		t.Fatalf("drop record after repair: %+v", d)
	}
	if rs.stray != 1 || rs.repaired != 2 {
		t.Fatalf("stray=%d repaired=%d, want 1 and 2", rs.stray, rs.repaired)
	}
}
