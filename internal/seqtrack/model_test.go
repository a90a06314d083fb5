package seqtrack

import (
	"math/rand"
	"slices"
	"testing"

	"lbrm/internal/wire"
)

// mapTracker is the map-of-seen-seqs tracker the run-based Tracker
// replaced, kept verbatim as the reference model: every observable of the
// two must agree under any call sequence.
type mapTracker struct {
	contacted bool
	base      uint64
	contig    uint64
	highest   uint64
	seen      map[uint64]bool
}

func (t *mapTracker) SetBase(seq uint64) bool {
	if t.contacted {
		return false
	}
	t.contacted = true
	t.base, t.contig, t.highest = seq, seq, seq
	return true
}

func (t *mapTracker) Mark(seq uint64) bool {
	if seq == 0 || t.Seen(seq) {
		return false
	}
	t.contacted = true
	if seq > t.highest {
		t.highest = seq
	}
	if seq == t.contig+1 {
		t.contig++
		for t.seen[t.contig+1] {
			t.contig++
			delete(t.seen, t.contig)
		}
		return true
	}
	if t.seen == nil {
		t.seen = make(map[uint64]bool)
	}
	t.seen[seq] = true
	return true
}

func (t *mapTracker) Seen(seq uint64) bool { return seq <= t.contig || t.seen[seq] }

func (t *mapTracker) AppendMissing(dst []wire.SeqRange, hi uint64, maxRanges int) []wire.SeqRange {
	if hi == 0 {
		hi = t.highest
	}
	if maxRanges <= 0 {
		maxRanges = wire.MaxNackRanges
	}
	if hi <= t.contig {
		return dst
	}
	var keys []uint64
	for q := range t.seen {
		if q > t.contig && q <= hi {
			keys = append(keys, q)
		}
	}
	slices.Sort(keys)
	base := len(dst)
	next := t.contig + 1
	for _, k := range keys {
		if k > next {
			dst = append(dst, wire.SeqRange{From: next, To: k - 1})
			if len(dst)-base == maxRanges {
				return dst
			}
		}
		next = k + 1
	}
	if next <= hi {
		dst = append(dst, wire.SeqRange{From: next, To: hi})
	}
	return dst
}

func (t *mapTracker) Advance(seq uint64) {
	if seq <= t.contig {
		return
	}
	t.contacted = true
	t.contig = seq
	if seq > t.highest {
		t.highest = seq
	}
	for q := range t.seen {
		if q <= seq {
			delete(t.seen, q)
		}
	}
	for t.seen[t.contig+1] {
		t.contig++
		delete(t.seen, t.contig)
	}
}

// TestTrackerMatchesMapModel drives the Tracker and the map model with
// the same random calls — in-order, reordered, duplicate, stale and
// forged far-ahead marks, late-join bases, skips, and gap queries with
// and without truncation — and fails on the first observable that
// differs.
func TestTrackerMatchesMapModel(t *testing.T) {
	seeds, steps := 3000, 400
	if testing.Short() {
		seeds = 300
	}
	var got, want []wire.SeqRange
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var tr Tracker
		var m mapTracker
		// A narrow window makes holes fill and runs merge; a wide one
		// leaves many runs standing.
		window := uint64(4 + rng.Intn(120))
		for step := 0; step < steps; step++ {
			near := m.contig + 1 + uint64(rng.Int63n(int64(window)))
			var op string
			switch r := rng.Intn(100); {
			case r < 55:
				op = "Mark"
				if a, b := tr.Mark(near), m.Mark(near); a != b {
					t.Fatalf("seed %d step %d: Mark(%d) = %v, model %v", seed, step, near, a, b)
				}
			case r < 62: // duplicate or stale
				op = "Mark"
				q := uint64(rng.Int63n(int64(m.highest + 2)))
				if a, b := tr.Mark(q), m.Mark(q); a != b {
					t.Fatalf("seed %d step %d: Mark(%d) = %v, model %v", seed, step, q, a, b)
				}
			case r < 64: // forged far-ahead
				op = "Mark"
				q := m.highest + 1<<40 + uint64(rng.Int63n(1<<40))
				if a, b := tr.Mark(q), m.Mark(q); a != b {
					t.Fatalf("seed %d step %d: Mark(%d) = %v, model %v", seed, step, q, a, b)
				}
			case r < 67:
				op = "SetBase"
				q := uint64(rng.Int63n(int64(window) * 4))
				if a, b := tr.SetBase(q), m.SetBase(q); a != b {
					t.Fatalf("seed %d step %d: SetBase(%d) = %v, model %v", seed, step, q, a, b)
				}
			case r < 71:
				op = "Advance"
				q := m.contig + uint64(rng.Int63n(int64(window)*2))
				if q > window/2 {
					q -= window / 2 // sometimes behind contig: a no-op
				}
				tr.Advance(q)
				m.Advance(q)
			case r < 80:
				op = "Seen"
				q := uint64(rng.Int63n(int64(m.highest + window)))
				if a, b := tr.Seen(q), m.Seen(q); a != b {
					t.Fatalf("seed %d step %d: Seen(%d) = %v, model %v", seed, step, q, a, b)
				}
			default:
				op = "AppendMissing"
				var hi uint64
				if rng.Intn(2) == 0 {
					hi = uint64(rng.Int63n(int64(m.highest + window)))
				}
				maxRanges := rng.Intn(6) - 1
				got = tr.AppendMissing(got[:0], hi, maxRanges)
				want = m.AppendMissing(want[:0], hi, maxRanges)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: AppendMissing(%d, %d) = %v, model %v", seed, step, hi, maxRanges, got, want)
				}
			}
			checkRuns(t, &tr)
			state := []uint64{tr.Base(), tr.Contiguous(), tr.Highest(), uint64(tr.Pending())}
			model := []uint64{m.base, m.contig, m.highest, uint64(len(m.seen))}
			if !slices.Equal(state, model) || tr.Contacted() != m.contacted {
				t.Fatalf("seed %d step %d after %s: base/contig/highest/pending = %v, model %v",
					seed, step, op, state, model)
			}
		}
	}
}

// checkRuns fails unless tr's runs are in canonical form: sorted,
// disjoint, non-adjacent, and clear of the contiguity watermark.
func checkRuns(t *testing.T, tr *Tracker) {
	t.Helper()
	next := tr.contig + 2 // lowest From the first run may have
	for i, r := range tr.runs {
		if r.From < next || r.To < r.From {
			t.Fatalf("run %d of %v not canonical above contig %d", i, tr.runs, tr.contig)
		}
		next = r.To + 2
	}
}

// TestMaxSeqDoesNotWrap pins the top of the sequence space: a run ending
// at the largest sequence number must not wrap the gap walk to 0.
func TestMaxSeqDoesNotWrap(t *testing.T) {
	const max = ^uint64(0)
	var tr Tracker
	tr.Mark(1)
	tr.Mark(max)
	got := tr.AppendMissing(nil, max, 0)
	want := []wire.SeqRange{{From: 2, To: max - 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("AppendMissing = %v, want %v", got, want)
	}
	if !tr.Mark(max-1) || tr.Mark(max) || tr.Pending() != 2 {
		t.Fatalf("marks at the top: pending %d", tr.Pending())
	}
	tr.Advance(max)
	if tr.Contiguous() != max || tr.Pending() != 0 {
		t.Fatalf("Advance(max): contig %d pending %d", tr.Contiguous(), tr.Pending())
	}
}
