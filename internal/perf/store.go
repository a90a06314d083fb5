package perf

import (
	"testing"
	"time"

	"lbrm/internal/logger"
	"lbrm/internal/wire"
)

// benchStart pins the store timestamps so age-based retention never kicks
// in during benchmarks that don't ask for it.
var benchStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// StorePut measures steady-state sequential logging under a packet-count
// cap: every Put lands in the ring and (once warm) evicts the oldest
// entry — the secondary logger's exact per-data-packet store cost.
func StorePut(b *testing.B) {
	s := logger.NewStore(logger.Retention{MaxPackets: 4096})
	defer s.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Put(uint64(i+1), payload, benchStart) {
			b.Fatal("Put rejected fresh seq")
		}
	}
}

// StorePutUnbounded measures logging with no retention pressure (growth
// path included).
func StorePutUnbounded(b *testing.B) {
	s := logger.NewStore(logger.Retention{})
	defer s.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i+1), payload, benchStart)
	}
}

// StoreGet measures retransmission lookup over a warm store.
func StoreGet(b *testing.B) {
	const n = 4096
	s := logger.NewStore(logger.Retention{MaxPackets: n})
	defer s.Close()
	payload := make([]byte, 128)
	for seq := uint64(1); seq <= n; seq++ {
		s.Put(seq, payload, benchStart)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i%n) + 1
		if _, ok := s.Get(seq); !ok {
			b.Fatalf("Get(%d) missing", seq)
		}
	}
}

// StoreEvictByBytes measures the byte-budget eviction path: each Put must
// evict a previous payload to stay under budget.
func StoreEvictByBytes(b *testing.B) {
	s := logger.NewStore(logger.Retention{MaxBytes: 64 * 1024})
	defer s.Close()
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i+1), payload, benchStart)
	}
}

// StoreMissingSteady measures the gap computation on a gapless stream (the
// per-packet checkGaps cost when nothing is lost).
func StoreMissingSteady(b *testing.B) {
	s := logger.NewStore(logger.Retention{MaxPackets: 1024})
	defer s.Close()
	for seq := uint64(1); seq <= 1024; seq++ {
		s.Put(seq, nil, benchStart)
	}
	var m []wire.SeqRange
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m = s.AppendMissing(m[:0], 0, 0); len(m) != 0 {
			b.Fatal("unexpected gaps")
		}
	}
}
