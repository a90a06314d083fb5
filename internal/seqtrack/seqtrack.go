// Package seqtrack implements the sequence-number bookkeeping shared by
// every LBRM endpoint that watches a stream: the contiguity watermark, the
// out-of-order arrivals above it (kept as sorted runs), the late-join base
// (history a mid-stream joiner deliberately skips), and gap (missing-range)
// computation. The log store, the receiver, and the SRM baseline all track
// streams through this one type.
//
// Semantics: sequence numbers start at 1; 0 is never valid. The first
// Mark or SetBase establishes "contact"; SetBase after contact is a no-op,
// so a late joiner adopts the stream position exactly once.
package seqtrack

import (
	"cmp"
	"slices"

	"lbrm/internal/wire"
)

// Tracker tracks one stream. The zero value is ready to use.
type Tracker struct {
	contacted bool
	base      uint64
	contig    uint64
	highest   uint64
	// runs holds the marked sequence numbers above contig as sorted,
	// disjoint, non-adjacent inclusive runs; runs[0].From > contig+1.
	// State is bounded by the number of holes, not by the backlog behind
	// them, and the backing array is reused so steady state allocates
	// nothing.
	runs []wire.SeqRange
}

// Contacted reports whether the stream has been seen at all (any Mark or
// SetBase).
func (t *Tracker) Contacted() bool { return t.contacted }

// Base returns the late-join watermark: history ≤ Base is neither tracked
// nor reported missing.
func (t *Tracker) Base() uint64 { return t.base }

// Contiguous returns the highest c such that every sequence number in
// (Base, c] has been marked (Base when nothing has).
func (t *Tracker) Contiguous() uint64 { return t.contig }

// Highest returns the largest sequence number marked or implied (via
// SetBase).
func (t *Tracker) Highest() uint64 { return t.highest }

// SetBase declares history up to and including seq as deliberately
// skipped. It applies only on first contact and reports whether it did.
func (t *Tracker) SetBase(seq uint64) bool {
	if t.contacted {
		return false
	}
	t.contacted = true
	t.base = seq
	t.contig = seq
	t.highest = seq
	return true
}

// Mark records seq as seen. It returns false for 0, for duplicates, and
// for sequence numbers at or below the base watermark. An in-order
// arrival, or one that extends the last run, is O(1); any other costs a
// binary search plus at most one insert or merge.
func (t *Tracker) Mark(seq uint64) bool {
	if seq <= t.contig { // seq 0 included
		return false
	}
	n := len(t.runs)
	switch {
	case seq == t.contig+1:
		t.contig = seq
		if n > 0 && t.runs[0].From-1 == seq {
			t.contig = t.runs[0].To
			t.runs = slices.Delete(t.runs, 0, 1)
		}
	case n == 0 || t.runs[n-1].To < seq-1:
		t.runs = append(t.runs, wire.SeqRange{From: seq, To: seq})
	case t.runs[n-1].To == seq-1:
		t.runs[n-1].To = seq
	default:
		i := t.search(seq - 1)
		r := &t.runs[i]
		switch {
		case r.From <= seq && seq <= r.To:
			return false
		case r.To == seq-1: // extends run i; may close the hole to i+1
			r.To = seq // i < n-1: the last run ends above seq
			if t.runs[i+1].From-1 == seq {
				r.To = t.runs[i+1].To
				t.runs = slices.Delete(t.runs, i+1, i+2)
			}
		case r.From-1 == seq:
			r.From = seq
		default:
			t.runs = slices.Insert(t.runs, i, wire.SeqRange{From: seq, To: seq})
		}
	}
	t.contacted = true
	if seq > t.highest {
		t.highest = seq
	}
	return true
}

// search returns the index of the first run ending at or above seq
// (len(runs) when none does).
func (t *Tracker) search(seq uint64) int {
	i, _ := slices.BinarySearchFunc(t.runs, seq, func(r wire.SeqRange, q uint64) int { return cmp.Compare(r.To, q) })
	return i
}

// Seen reports whether seq has been marked (or skipped by the base).
func (t *Tracker) Seen(seq uint64) bool {
	if seq <= t.contig {
		return true
	}
	i := t.search(seq)
	return i < len(t.runs) && t.runs[i].From <= seq
}

// AppendMissing appends up to maxRanges ranges of unmarked sequence
// numbers in (Contiguous, hi], in ascending order, to dst and returns the
// extended slice. hi of 0 means Highest(); maxRanges ≤ 0 means
// wire.MaxNackRanges. It walks the runs, so its cost is O(ranges
// returned), independent of the backlog and of the width of the gaps — a
// forged sequence number cannot make it expensive. Hot callers pass a
// reused dst (typically dst[:0]) to make gap computation allocation-free.
func (t *Tracker) AppendMissing(dst []wire.SeqRange, hi uint64, maxRanges int) []wire.SeqRange {
	if hi == 0 {
		hi = t.highest
	}
	if maxRanges <= 0 {
		maxRanges = wire.MaxNackRanges
	}
	if hi <= t.contig {
		return dst
	}
	base := len(dst)
	next := t.contig + 1
	for _, r := range t.runs {
		if r.From > hi {
			break
		}
		dst = append(dst, wire.SeqRange{From: next, To: r.From - 1})
		if len(dst)-base == maxRanges || r.To >= hi {
			return dst
		}
		next = r.To + 1
	}
	return append(dst, wire.SeqRange{From: next, To: hi})
}

// Advance force-skips history: every sequence number up to and including
// seq counts as seen (without having been delivered). Endpoints use it to
// bound how far behind they are willing to chase — receiver-reliable
// semantics prefer adopting the stream's current position over unbounded
// recovery, and it defuses forged sequence numbers.
func (t *Tracker) Advance(seq uint64) {
	if seq <= t.contig {
		return
	}
	t.contacted = true
	t.contig = seq
	if seq > t.highest {
		t.highest = seq
	}
	i := t.search(seq)
	if i < len(t.runs) && t.runs[i].From-1 <= seq {
		t.contig = t.runs[i].To
		i++
	}
	t.runs = slices.Delete(t.runs, 0, i)
}

// Pending returns the number of out-of-order sequence numbers held above
// the contiguity watermark.
func (t *Tracker) Pending() int {
	n := 0
	for _, r := range t.runs {
		n += int(r.Count())
	}
	return n
}
