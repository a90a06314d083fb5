package perf

import (
	"fmt"
	"runtime"
	"testing"

	"lbrm/internal/seqtrack"
	"lbrm/internal/wire"
)

// behindHole returns a tracker whose seq 1 is missing and whose backlog
// arrivals 2..backlog+1 stand behind that one hole.
func behindHole(backlog int) *seqtrack.Tracker {
	tr := new(seqtrack.Tracker)
	for q := uint64(2); q <= uint64(backlog)+1; q++ {
		tr.Mark(q)
	}
	return tr
}

// BenchmarkTrackerMissingBacklog times one gap query on a stream with one
// standing hole and a backlog of arrivals behind it — the query a
// receiver or logger makes on every arrival while a loss is outstanding.
// Its cost is O(ranges returned), so ns/op is flat across the backlogs.
func BenchmarkTrackerMissingBacklog(b *testing.B) {
	for _, backlog := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprint(backlog), func(b *testing.B) {
			tr := behindHole(backlog)
			var m []wire.SeqRange
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m = tr.AppendMissing(m[:0], 0, 0)
			}
			if len(m) != 1 {
				b.Fatalf("%d missing ranges, want 1", len(m))
			}
		})
	}
}

// TestTrackerZeroAlloc pins gap bookkeeping behind a standing hole — the
// state every endpoint holds while a loss is outstanding — at zero
// steady-state mallocs, counted unrounded. Behind a hole with 1 000
// arrivals after it, each step opens a second hole, queries the gaps,
// fills the hole and queries again, so a run is appended, extended,
// inserted and merged; the runs reuse their backing array.
func TestTrackerZeroAlloc(t *testing.T) {
	const backlog, runs = 1000, 2000
	tr := behindHole(backlog)
	var m []wire.SeqRange
	next := uint64(backlog) + 2
	step := func() {
		tr.Mark(next + 1)
		m = tr.AppendMissing(m[:0], 0, 0)
		tr.Mark(next)
		m = tr.AppendMissing(m[:0], 0, 0)
		next += 2
	}
	step()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	if len(m) != 1 || tr.Pending() != backlog+2*(runs+1) {
		t.Fatalf("tracker step: %d ranges, %d pending", len(m), tr.Pending())
	}
	if allocs := float64(m1.Mallocs-m0.Mallocs) / runs; allocs != 0 {
		t.Fatalf("steady-state Mark+AppendMissing allocates %.4f mallocs/op, want 0", allocs)
	}
}
