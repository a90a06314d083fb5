package logger

import (
	"testing"
	"time"

	"lbrm/internal/transport"
	"lbrm/internal/transport/transporttest"
	"lbrm/internal/wire"
)

func batch(child string, n int) RepairBatch {
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	return RepairBatch{Child: transporttest.Addr(child), Seqs: seqs}
}

func TestScheduleRepairsLPTBeatsFIFO(t *testing.T) {
	// A small early request ahead of a huge one is the FIFO worst case:
	// the big child's relay tail starts late.
	fifo := []RepairBatch{batch("small", 1), batch("big", 100), batch("mid", 10)}
	fifoSpan := RepairMakespan(fifo)
	lpt := append([]RepairBatch(nil), fifo...)
	ScheduleRepairs(lpt)
	lptSpan := RepairMakespan(lpt)
	if lpt[0].Child != transporttest.Addr("big") || lpt[2].Child != transporttest.Addr("small") {
		t.Fatalf("LPT order = %v", lpt)
	}
	// FIFO: completions 1+1, 101+100, 111+10 → 201.
	// LPT: 100+100, 110+10, 111+1 → 200; span(LPT) ≤ span(FIFO) always.
	if fifoSpan != 201 || lptSpan != 200 {
		t.Fatalf("makespan fifo=%d lpt=%d, want 201/200", fifoSpan, lptSpan)
	}
	if lptSpan > fifoSpan {
		t.Fatalf("LPT makespan %d worse than FIFO %d", lptSpan, fifoSpan)
	}
}

func TestScheduleRepairsStableOnTies(t *testing.T) {
	b := []RepairBatch{batch("a", 2), batch("b", 2), batch("c", 5), batch("d", 2)}
	ScheduleRepairs(b)
	got := []string{string(b[0].Child.(transporttest.Addr)), string(b[1].Child.(transporttest.Addr)),
		string(b[2].Child.(transporttest.Addr)), string(b[3].Child.(transporttest.Addr))}
	want := []string{"c", "a", "b", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule order = %v, want %v", got, want)
		}
	}
}

// TestSecondaryMakespanRepairOrdering: with MakespanRepair on, locally
// served NACKs batch for one NackDelay and release largest-demand-first;
// a duplicate request within the window is not served twice.
func TestSecondaryMakespanRepairOrdering(t *testing.T) {
	s, env := newSecondary(t, SecondaryConfig{
		MakespanRepair:   true,
		NackDelay:        10 * time.Millisecond,
		RemcastThreshold: 99, // keep everything unicast in this test
	})
	for seq := uint64(1); seq <= 6; seq++ {
		s.Recv(srcAddr, mustMarshal(t, dataPkt(seq, "x")))
	}
	// Small demand arrives first, then the big one, then a duplicate.
	s.Recv(rcvA, mustMarshal(t, nackPkt(wire.SeqRange{From: 1, To: 1})))
	s.Recv(rcvB, mustMarshal(t, nackPkt(wire.SeqRange{From: 2, To: 5})))
	s.Recv(rcvA, mustMarshal(t, nackPkt(wire.SeqRange{From: 1, To: 1})))
	if len(env.Sents) != 0 {
		t.Fatalf("repairs released before the scheduling window closed: %d", len(env.Sents))
	}
	env.Advance(15 * time.Millisecond)
	sents := env.SentPackets()
	if len(sents) != 5 {
		t.Fatalf("released %d repairs, want 5 (4 big + 1 small, dup dropped)", len(sents))
	}
	// Largest demand first: rcvB's four repairs, then rcvA's one.
	for i, p := range sents {
		wantTo := transport.Addr(rcvB)
		if i == 4 {
			wantTo = rcvA
		}
		if env.Sents[i].To != wantTo {
			t.Fatalf("repair %d to %v, want %v", i, env.Sents[i].To, wantTo)
		}
		if p.Type != wire.TypeRetrans {
			t.Fatalf("repair %d type = %v", i, p.Type)
		}
	}
	if got := s.Stats(); got.RetransUnicast != 5 {
		t.Fatalf("stats = %+v, want 5 unicast repairs", got)
	}
}

// TestSecondaryMakespanRepairCoalesces: demand from RemcastThreshold
// children within one window folds into a single site re-multicast.
func TestSecondaryMakespanRepairCoalesces(t *testing.T) {
	s, env := newSecondary(t, SecondaryConfig{
		MakespanRepair:   true,
		NackDelay:        10 * time.Millisecond,
		RemcastThreshold: 3,
	})
	s.Recv(srcAddr, mustMarshal(t, dataPkt(1, "hot")))
	for _, r := range []transport.Addr{rcvA, rcvB, rcvC} {
		s.Recv(r, mustMarshal(t, nackPkt(wire.SeqRange{From: 1, To: 1})))
	}
	env.Advance(15 * time.Millisecond)
	if got := s.Stats(); got.Remulticasts != 1 || got.RetransUnicast != 0 {
		t.Fatalf("stats = %+v, want one re-multicast and no unicasts", got)
	}
	mc := env.McastPackets()
	if len(mc) != 1 || mc[0].Type != wire.TypeRetrans || mc[0].Seq != 1 {
		t.Fatalf("multicasts = %v", mc)
	}
}
