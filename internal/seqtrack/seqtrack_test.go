package seqtrack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbrm/internal/wire"
)

func TestZeroValueUsable(t *testing.T) {
	var tr Tracker
	if tr.Contacted() || tr.Contiguous() != 0 || tr.Highest() != 0 {
		t.Fatal("zero value not pristine")
	}
	if !tr.Mark(1) {
		t.Fatal("Mark(1) on zero value failed")
	}
	if tr.Contiguous() != 1 {
		t.Fatalf("Contiguous = %d", tr.Contiguous())
	}
}

func TestMarkRejectsZeroAndDuplicates(t *testing.T) {
	var tr Tracker
	if tr.Mark(0) {
		t.Fatal("Mark(0) accepted")
	}
	if !tr.Mark(3) || tr.Mark(3) {
		t.Fatal("duplicate handling wrong")
	}
}

func TestContiguityAdvancesThroughSparse(t *testing.T) {
	var tr Tracker
	for _, q := range []uint64{2, 4, 5} {
		tr.Mark(q)
	}
	if tr.Contiguous() != 0 || tr.Pending() != 3 {
		t.Fatalf("contig=%d pending=%d", tr.Contiguous(), tr.Pending())
	}
	tr.Mark(1)
	if tr.Contiguous() != 2 {
		t.Fatalf("contig = %d, want 2", tr.Contiguous())
	}
	tr.Mark(3)
	if tr.Contiguous() != 5 || tr.Pending() != 0 {
		t.Fatalf("contig=%d pending=%d, want 5,0", tr.Contiguous(), tr.Pending())
	}
}

func TestSetBaseOnlyOnFirstContact(t *testing.T) {
	var tr Tracker
	if !tr.SetBase(10) {
		t.Fatal("first SetBase rejected")
	}
	if tr.SetBase(20) {
		t.Fatal("second SetBase applied")
	}
	if tr.Base() != 10 || tr.Contiguous() != 10 {
		t.Fatalf("base=%d contig=%d", tr.Base(), tr.Contiguous())
	}
	// Below-base marks are rejected (already "seen" as skipped history).
	if tr.Mark(5) {
		t.Fatal("Mark below base accepted")
	}
	if !tr.Mark(11) || tr.Contiguous() != 11 {
		t.Fatal("post-base mark broken")
	}
	// Mark-then-SetBase: contact came from the mark.
	var tr2 Tracker
	tr2.Mark(3)
	if tr2.SetBase(7) {
		t.Fatal("SetBase applied after Mark contact")
	}
}

func TestMissingRangesAndCaps(t *testing.T) {
	var tr Tracker
	for _, q := range []uint64{1, 4, 5, 9} {
		tr.Mark(q)
	}
	got := tr.AppendMissing(nil, 0, 0)
	want := []wire.SeqRange{{From: 2, To: 3}, {From: 6, To: 8}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("AppendMissing = %v, want %v", got, want)
	}
	if got := tr.AppendMissing(nil, 12, 0); got[len(got)-1] != (wire.SeqRange{From: 10, To: 12}) {
		t.Fatalf("AppendMissing(12) tail = %v", got)
	}
	if got := tr.AppendMissing(nil, 0, 1); len(got) != 1 {
		t.Fatalf("cap ignored: %v", got)
	}
}

// Property: marking any permutation of (base, base+n] yields full
// contiguity, no pending state, and no missing ranges.
func TestPermutationProperty(t *testing.T) {
	f := func(seed int64, baseRaw uint16, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		base := uint64(baseRaw)
		n := int(nRaw%80) + 1
		var tr Tracker
		if base > 0 {
			tr.SetBase(base)
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			if !tr.Mark(base + uint64(i) + 1) {
				return false
			}
		}
		return tr.Contiguous() == base+uint64(n) &&
			tr.Pending() == 0 &&
			len(tr.AppendMissing(nil, 0, 0)) == 0 &&
			tr.Highest() == base+uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Missing exactly complements Seen over (Base, Highest].
func TestComplementProperty(t *testing.T) {
	f := func(raw []uint16, baseRaw uint8) bool {
		var tr Tracker
		base := uint64(baseRaw % 20)
		if base > 0 {
			tr.SetBase(base)
		}
		for _, q := range raw {
			tr.Mark(base + uint64(q%150) + 1)
		}
		missing := map[uint64]bool{}
		for _, r := range tr.AppendMissing(nil, 0, 0) {
			for q := r.From; q <= r.To; q++ {
				missing[q] = true
			}
		}
		for q := base + 1; q <= tr.Highest(); q++ {
			if tr.Seen(q) == missing[q] {
				return false
			}
		}
		// Nothing below or at base is ever missing.
		for q := range missing {
			if q <= base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: invariants hold under arbitrary interleavings: contig ≤
// highest, Seen(contig) true (when above base), ranges sorted and
// non-overlapping.
func TestInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var tr Tracker
		for _, op := range ops {
			seq := uint64(op%300) + 1
			if op%7 == 0 {
				tr.SetBase(seq)
			} else {
				tr.Mark(seq)
			}
			if tr.Contiguous() > tr.Highest() || tr.Base() > tr.Contiguous() {
				return false
			}
			prev := uint64(0)
			for _, r := range tr.AppendMissing(nil, 0, 0) {
				if r.From <= prev || r.To < r.From {
					return false
				}
				prev = r.To
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingIsCheapForHugeGaps(t *testing.T) {
	var tr Tracker
	tr.Mark(1)
	tr.Mark(1 << 60) // forged/hostile head
	// Must return instantly (O(pending)) with the capped range set.
	got := tr.AppendMissing(nil, 0, 3)
	if len(got) != 1 || got[0].From != 2 || got[0].To != (1<<60)-1 {
		t.Fatalf("AppendMissing = %v", got)
	}
}

func TestAdvanceSkipsHistory(t *testing.T) {
	var tr Tracker
	tr.Mark(1)
	tr.Mark(5)
	tr.Mark(100)
	tr.Advance(50)
	if tr.Contiguous() != 50 {
		t.Fatalf("Contiguous = %d, want 50", tr.Contiguous())
	}
	if !tr.Seen(30) || !tr.Seen(5) {
		t.Fatal("skipped seqs not Seen")
	}
	if tr.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (seq 100)", tr.Pending())
	}
	// Advance through retained sparse marks compacts.
	tr.Advance(99)
	if tr.Contiguous() != 100 || tr.Pending() != 0 {
		t.Fatalf("contig=%d pending=%d, want 100,0", tr.Contiguous(), tr.Pending())
	}
	// No-op backwards.
	tr.Advance(10)
	if tr.Contiguous() != 100 {
		t.Fatal("backward Advance mutated state")
	}
}
