package logger

import (
	"os"
	"testing"
	"testing/quick"
	"time"

	"lbrm/internal/wire"
)

var tBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestStorePutGet(t *testing.T) {
	s := NewStore(Retention{})
	if !s.Put(1, []byte("a"), tBase) {
		t.Fatal("Put(1) = false")
	}
	if s.Put(1, []byte("dup"), tBase) {
		t.Fatal("duplicate Put accepted")
	}
	if s.Put(0, []byte("zero"), tBase) {
		t.Fatal("Put(0) accepted; sequence numbers start at 1")
	}
	got, ok := s.Get(1)
	if !ok || string(got) != "a" {
		t.Fatalf("Get(1) = %q,%v", got, ok)
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("Get(2) found phantom")
	}
	if s.Len() != 1 || s.Bytes() != 1 {
		t.Fatalf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

func TestStorePutCopiesPayload(t *testing.T) {
	s := NewStore(Retention{})
	buf := []byte("orig")
	s.Put(1, buf, tBase)
	copy(buf, "XXXX")
	got, _ := s.Get(1)
	if string(got) != "orig" {
		t.Fatal("store aliased caller buffer")
	}
}

func TestStoreContiguityAndMissing(t *testing.T) {
	s := NewStore(Retention{})
	for _, seq := range []uint64{1, 2, 5, 7} {
		s.Put(seq, []byte{byte(seq)}, tBase)
	}
	if s.Contiguous() != 2 {
		t.Fatalf("Contiguous = %d, want 2", s.Contiguous())
	}
	if s.Highest() != 7 {
		t.Fatalf("Highest = %d, want 7", s.Highest())
	}
	miss := s.AppendMissing(nil, 0, 0)
	want := []wire.SeqRange{{From: 3, To: 4}, {From: 6, To: 6}}
	if len(miss) != len(want) || miss[0] != want[0] || miss[1] != want[1] {
		t.Fatalf("AppendMissing = %v, want %v", miss, want)
	}
	// Fill the first gap: contiguity advances through the already-seen 5.
	s.Put(3, nil, tBase)
	s.Put(4, nil, tBase)
	if s.Contiguous() != 5 {
		t.Fatalf("Contiguous = %d after fill, want 5", s.Contiguous())
	}
	// Missing beyond highest via explicit hi.
	miss = s.AppendMissing(nil, 9, 0)
	want = []wire.SeqRange{{From: 6, To: 6}, {From: 8, To: 9}}
	if len(miss) != 2 || miss[0] != want[0] || miss[1] != want[1] {
		t.Fatalf("AppendMissing(9) = %v, want %v", miss, want)
	}
}

func TestStoreMissingRangeCap(t *testing.T) {
	s := NewStore(Retention{})
	// Odd seqs only → every even seq is its own range.
	for seq := uint64(1); seq <= 41; seq += 2 {
		s.Put(seq, nil, tBase)
	}
	if got := s.AppendMissing(nil, 0, 5); len(got) != 5 {
		t.Fatalf("AppendMissing cap: got %d ranges, want 5", len(got))
	}
}

func TestStoreEvictByCount(t *testing.T) {
	s := NewStore(Retention{MaxPackets: 3})
	for seq := uint64(1); seq <= 5; seq++ {
		s.Put(seq, []byte{0}, tBase)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Has(1) || s.Has(2) {
		t.Fatal("oldest packets not evicted")
	}
	if !s.Has(3) || !s.Has(5) {
		t.Fatal("recent packets evicted")
	}
	// Contiguity unaffected by eviction.
	if s.Contiguous() != 5 {
		t.Fatalf("Contiguous = %d, want 5", s.Contiguous())
	}
	if !s.Seen(1) {
		t.Fatal("Seen(1) = false after eviction")
	}
}

func TestStoreEvictByBytes(t *testing.T) {
	s := NewStore(Retention{MaxBytes: 10})
	s.Put(1, make([]byte, 6), tBase)
	s.Put(2, make([]byte, 6), tBase)
	if s.Has(1) {
		t.Fatal("byte budget not enforced")
	}
	if s.Bytes() != 6 {
		t.Fatalf("Bytes = %d, want 6", s.Bytes())
	}
}

func TestStoreEvictByAge(t *testing.T) {
	s := NewStore(Retention{MaxAge: time.Minute})
	s.Put(1, []byte("old"), tBase)
	s.Put(2, []byte("new"), tBase.Add(50*time.Second))
	s.EvictExpired(tBase.Add(70 * time.Second))
	if s.Has(1) {
		t.Fatal("expired packet kept")
	}
	if !s.Has(2) {
		t.Fatal("fresh packet evicted")
	}
	// Age is also enforced on Put.
	s.Put(3, []byte("x"), tBase.Add(3*time.Minute))
	if s.Has(2) {
		t.Fatal("expired packet kept after Put")
	}
}

func TestStreamKey(t *testing.T) {
	p := wire.Packet{Source: 9, Group: 4}
	k := KeyOf(&p)
	if k.Source != 9 || k.Group != 4 {
		t.Fatalf("KeyOf = %+v", k)
	}
	if k.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: after inserting any permutation of 1..n, contiguity is n and
// nothing is missing.
func TestStoreContiguityProperty(t *testing.T) {
	f := func(perm []byte) bool {
		n := len(perm)
		if n == 0 || n > 64 {
			return true
		}
		// Build a permutation of 1..n from the random bytes.
		order := make([]uint64, n)
		for i := range order {
			order[i] = uint64(i + 1)
		}
		for i := n - 1; i > 0; i-- {
			j := int(perm[i]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		s := NewStore(Retention{})
		for _, seq := range order {
			s.Put(seq, nil, tBase)
		}
		return s.Contiguous() == uint64(n) && len(s.AppendMissing(nil, 0, 0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Missing ranges exactly complement Seen within [1, Highest].
func TestStoreMissingComplementProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		s := NewStore(Retention{})
		for _, q := range seqs {
			s.Put(uint64(q%200)+1, nil, tBase)
		}
		missing := map[uint64]bool{}
		for _, r := range s.AppendMissing(nil, 0, 0) {
			for q := r.From; q <= r.To; q++ {
				missing[q] = true
			}
		}
		for q := uint64(1); q <= s.Highest(); q++ {
			if s.Seen(q) == missing[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSpillToDisk(t *testing.T) {
	s := NewStore(Retention{MaxPackets: 2, SpillToDisk: true, SpillDir: t.TempDir()})
	defer s.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		s.Put(seq, []byte{byte('a' + seq)}, tBase)
	}
	// 1-3 spilled to disk, 4-5 in memory; everything still servable.
	for seq := uint64(1); seq <= 5; seq++ {
		got, ok := s.Get(seq)
		if !ok || got[0] != byte('a'+seq) {
			t.Fatalf("Get(%d) = %v,%v", seq, got, ok)
		}
		if !s.Has(seq) {
			t.Fatalf("Has(%d) = false", seq)
		}
		if s.Evicted(seq) {
			t.Fatalf("Evicted(%d) = true; spilled packets are servable", seq)
		}
	}
	if s.InMemory(1) {
		t.Fatal("seq 1 should be on disk")
	}
	if !s.InMemory(5) {
		t.Fatal("seq 5 should be in memory")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 in-memory", s.Len())
	}
	if s.SpillErrors() != 0 {
		t.Fatalf("spill errors: %d", s.SpillErrors())
	}
}

func TestStoreSpillBoundedIndex(t *testing.T) {
	// Each payload is 10 bytes; the spill index keeps ≤ 25 bytes → at most
	// 2 spilled packets reachable.
	s := NewStore(Retention{MaxPackets: 1, SpillToDisk: true, SpillDir: t.TempDir(),
		SpillMaxBytes: 25})
	defer s.Close()
	payload := make([]byte, 10)
	for seq := uint64(1); seq <= 6; seq++ {
		s.Put(seq, payload, tBase)
	}
	// In memory: 6. Spilled: 1..5 but only the newest ≤2 indexed.
	reachable := 0
	for seq := uint64(1); seq <= 5; seq++ {
		if s.Has(seq) {
			reachable++
			if seq < 4 {
				t.Fatalf("old spilled seq %d still reachable", seq)
			}
		}
	}
	if reachable != 2 {
		t.Fatalf("reachable spilled = %d, want 2", reachable)
	}
	// Beyond-bound packets count as evicted now.
	if !s.Evicted(1) {
		t.Fatal("dropped spill entry should read as evicted")
	}
}

func TestStoreSpillFileRemovedOnClose(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(Retention{MaxPackets: 1, SpillToDisk: true, SpillDir: dir})
	s.Put(1, []byte("a"), tBase)
	s.Put(2, []byte("b"), tBase) // forces a spill → creates the file
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spill files = %d, want 1", len(entries))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatal("spill file not removed on Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close errored")
	}
}

// Property: with spill enabled and any eviction pressure, every previously
// Put packet remains servable (no silent loss) as long as the spill index
// is unbounded.
func TestStoreSpillNoLossProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewStore(Retention{MaxBytes: 64, SpillToDisk: true, SpillDir: t.TempDir()})
		defer s.Close()
		for i, raw := range sizes {
			seq := uint64(i + 1)
			payload := make([]byte, int(raw%50)+1)
			payload[0] = byte(seq)
			s.Put(seq, payload, tBase)
		}
		for i := range sizes {
			seq := uint64(i + 1)
			got, ok := s.Get(seq)
			if !ok || got[0] != byte(seq) {
				return false
			}
		}
		return s.SpillErrors() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- ring-buffer refactor: semantics preserved (table-driven) ---

// TestStoreDuplicateRejection tables the duplicate-rejection rules across
// the live window, the base watermark, and eviction.
func TestStoreDuplicateRejection(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *Store)
		seq   uint64
		want  bool
	}{
		{"fresh seq", func(s *Store) {}, 1, true},
		{"zero seq", func(s *Store) {}, 0, false},
		{"exact duplicate", func(s *Store) { s.Put(1, []byte("a"), tBase) }, 1, false},
		{"evicted stays rejected", func(s *Store) {
			// MaxPackets 1 → seq 1 evicted by seq 2, but still *seen*.
			for seq := uint64(1); seq <= 2; seq++ {
				s.Put(seq, []byte("x"), tBase)
			}
		}, 1, false},
		{"below base accepted as backfill", func(s *Store) { s.SetBase(10) }, 5, true},
		{"above base accepted", func(s *Store) { s.SetBase(10) }, 11, true},
		{"gap fill accepted", func(s *Store) {
			s.Put(1, nil, tBase)
			s.Put(3, nil, tBase)
		}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(Retention{MaxPackets: 1})
			defer s.Close()
			tc.setup(s)
			if got := s.Put(tc.seq, []byte("p"), tBase.Add(time.Second)); got != tc.want {
				t.Fatalf("Put(%d) = %v, want %v", tc.seq, got, tc.want)
			}
		})
	}
}

// TestStoreBelowBaseBackfill exercises the sparse side index: a late
// joiner skips history with SetBase, then explicitly fetched pre-join
// packets are stored for serving without contiguity bookkeeping.
func TestStoreBelowBaseBackfill(t *testing.T) {
	s := NewStore(Retention{})
	defer s.Close()
	s.SetBase(100)
	for seq := uint64(101); seq <= 110; seq++ {
		if !s.Put(seq, []byte{byte(seq)}, tBase) {
			t.Fatalf("live Put(%d) rejected", seq)
		}
	}
	// Backfill below the base: accepted, servable, repeat rejected.
	if !s.Put(50, []byte("old"), tBase) {
		t.Fatal("backfill Put(50) rejected")
	}
	if s.Put(50, []byte("dup"), tBase) {
		t.Fatal("duplicate backfill accepted")
	}
	got, ok := s.Get(50)
	if !ok || string(got) != "old" {
		t.Fatalf("Get(50) = %q,%v", got, ok)
	}
	if !s.InMemory(50) {
		t.Fatal("backfill not in memory")
	}
	// Contiguity bookkeeping is unaffected by backfill.
	if s.Contiguous() != 110 {
		t.Fatalf("Contiguous = %d, want 110", s.Contiguous())
	}
	if len(s.AppendMissing(nil, 0, 0)) != 0 {
		t.Fatal("backfill created phantom gaps")
	}
	// The live ring keeps working after backfill.
	if !s.Put(111, []byte("live"), tBase) {
		t.Fatal("live Put(111) rejected after backfill")
	}
	if got, ok := s.Get(111); !ok || string(got) != "live" {
		t.Fatalf("Get(111) = %q,%v", got, ok)
	}
	if s.Len() != 12 {
		t.Fatalf("Len = %d, want 12", s.Len())
	}
}

// TestStoreEvictionOrder verifies lowest-sequence-first eviction across
// ring and side entries, including out-of-order arrival.
func TestStoreEvictionOrder(t *testing.T) {
	t.Run("in-order", func(t *testing.T) {
		s := NewStore(Retention{MaxPackets: 2})
		defer s.Close()
		for seq := uint64(1); seq <= 5; seq++ {
			s.Put(seq, []byte{byte(seq)}, tBase)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if s.Has(seq) {
				t.Fatalf("seq %d not evicted", seq)
			}
		}
		for seq := uint64(4); seq <= 5; seq++ {
			if !s.Has(seq) {
				t.Fatalf("seq %d evicted out of order", seq)
			}
		}
	})
	t.Run("out-of-order arrival", func(t *testing.T) {
		s := NewStore(Retention{MaxPackets: 3})
		defer s.Close()
		for _, seq := range []uint64{5, 2, 8, 3} {
			s.Put(seq, []byte{byte(seq)}, tBase)
		}
		// Lowest seq (2) evicted first regardless of arrival order.
		if s.Has(2) {
			t.Fatal("seq 2 (lowest) not evicted")
		}
		for _, seq := range []uint64{3, 5, 8} {
			if !s.Has(seq) {
				t.Fatalf("seq %d evicted, want lowest-first", seq)
			}
		}
	})
	t.Run("backfill evicted before live window", func(t *testing.T) {
		s := NewStore(Retention{})
		defer s.Close()
		s.SetBase(100)
		s.Put(101, []byte("live"), tBase)
		s.Put(50, []byte("old"), tBase) // side entry, below base
		// Shrink: re-fetch policy caps at 1 packet → next Put evicts the
		// lowest retained seq, which is the backfill.
		s2 := NewStore(Retention{MaxPackets: 2})
		defer s2.Close()
		s2.SetBase(100)
		s2.Put(101, []byte("live"), tBase)
		s2.Put(50, []byte("old"), tBase)
		s2.Put(102, []byte("live2"), tBase)
		if s2.Has(50) {
			t.Fatal("backfill (lowest seq) should evict first")
		}
		if !s2.Has(101) || !s2.Has(102) {
			t.Fatal("live window evicted before backfill")
		}
	})
}

// TestStoreMaxAgeWithSpill verifies MaxAge expiry interacting with
// spill-to-disk: expired packets leave memory but stay servable from disk.
func TestStoreMaxAgeWithSpill(t *testing.T) {
	s := NewStore(Retention{
		MaxAge: time.Minute, SpillToDisk: true, SpillDir: t.TempDir(),
	})
	defer s.Close()
	s.Put(1, []byte("ancient"), tBase)
	s.Put(2, []byte("recent"), tBase.Add(55*time.Second))
	s.EvictExpired(tBase.Add(70 * time.Second))
	if s.InMemory(1) {
		t.Fatal("expired packet still in memory")
	}
	if !s.InMemory(2) {
		t.Fatal("fresh packet expired")
	}
	// Expired-but-spilled packets remain servable and are not "evicted".
	got, ok := s.Get(1)
	if !ok || string(got) != "ancient" {
		t.Fatalf("Get(1) from spill = %q,%v", got, ok)
	}
	if s.Evicted(1) {
		t.Fatal("spilled packet reads as evicted")
	}
	// MaxAge is also enforced on Put, spilling as it expires.
	s.Put(3, []byte("new"), tBase.Add(3*time.Minute))
	if s.InMemory(2) {
		t.Fatal("expired packet kept in memory after Put")
	}
	if got, ok := s.Get(2); !ok || string(got) != "recent" {
		t.Fatalf("Get(2) from spill = %q,%v", got, ok)
	}
	if s.SpillErrors() != 0 {
		t.Fatalf("spill errors: %d", s.SpillErrors())
	}
}

// TestStoreRingOutOfOrderWindow exercises gaps inside the ring window:
// out-of-order arrival within the dense window must not send packets to
// the side index or lose them.
func TestStoreRingOutOfOrderWindow(t *testing.T) {
	s := NewStore(Retention{})
	defer s.Close()
	// Arrive 1..200 with a stride permutation (gaps open and close).
	for _, off := range []uint64{0, 3, 1, 2} {
		for seq := uint64(1) + off; seq <= 200; seq += 4 {
			s.Put(seq, []byte{byte(seq)}, tBase)
		}
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	if s.Contiguous() != 200 {
		t.Fatalf("Contiguous = %d, want 200", s.Contiguous())
	}
	for seq := uint64(1); seq <= 200; seq++ {
		got, ok := s.Get(seq)
		if !ok || len(got) != 1 || got[0] != byte(seq) {
			t.Fatalf("Get(%d) = %v,%v", seq, got, ok)
		}
	}
}

// TestStoreSparseOutlierSide verifies a forged far-ahead sequence number
// cannot balloon the ring: it lands in the sparse side index, stays
// servable, and the dense stream continues unharmed.
func TestStoreSparseOutlierSide(t *testing.T) {
	s := NewStore(Retention{})
	defer s.Close()
	for seq := uint64(1); seq <= 100; seq++ {
		s.Put(seq, []byte{byte(seq)}, tBase)
	}
	forged := uint64(1 << 40)
	if !s.Put(forged, []byte("forged"), tBase) {
		t.Fatal("outlier rejected")
	}
	if got, ok := s.Get(forged); !ok || string(got) != "forged" {
		t.Fatalf("Get(outlier) = %q,%v", got, ok)
	}
	// The dense stream continues to work.
	for seq := uint64(101); seq <= 300; seq++ {
		if !s.Put(seq, []byte{byte(seq)}, tBase) {
			t.Fatalf("live Put(%d) rejected after outlier", seq)
		}
	}
	for seq := uint64(1); seq <= 300; seq++ {
		if !s.Has(seq) {
			t.Fatalf("Has(%d) = false", seq)
		}
	}
}

// TestStoreWindowRestartAfterDrain: when everything is evicted the window
// re-bases wherever the stream is now (e.g. after a long idle + MaxAge).
func TestStoreWindowRestartAfterDrain(t *testing.T) {
	s := NewStore(Retention{MaxAge: time.Minute})
	defer s.Close()
	for seq := uint64(1); seq <= 10; seq++ {
		s.Put(seq, []byte{byte(seq)}, tBase)
	}
	s.EvictExpired(tBase.Add(time.Hour))
	if s.Len() != 0 {
		t.Fatalf("Len = %d after full expiry, want 0", s.Len())
	}
	// Stream resumes far ahead: ring must restart, not treat it as sparse.
	for seq := uint64(100000); seq <= 100100; seq++ {
		if !s.Put(seq, []byte("r"), tBase.Add(2*time.Hour)) {
			t.Fatalf("Put(%d) rejected after restart", seq)
		}
	}
	if s.Len() != 101 {
		t.Fatalf("Len = %d, want 101", s.Len())
	}
	for seq := uint64(100000); seq <= 100100; seq++ {
		if !s.InMemory(seq) {
			t.Fatalf("InMemory(%d) = false after restart", seq)
		}
	}
}

// TestStoreGetValidUntilNextPut documents the arena aliasing contract:
// bytes returned by Get are stable until the next Put or eviction.
func TestStoreGetValidUntilNextPut(t *testing.T) {
	s := NewStore(Retention{})
	defer s.Close()
	s.Put(1, []byte("first"), tBase)
	got, _ := s.Get(1)
	snapshot := string(got) // copy, per the contract
	s.Put(2, []byte("second"), tBase)
	if snapshot != "first" {
		t.Fatal("copied payload changed")
	}
	// The original seq is still served correctly after more Puts.
	if got, ok := s.Get(1); !ok || string(got) != "first" {
		t.Fatalf("Get(1) = %q,%v", got, ok)
	}
}

// TestStoreNextRetained exercises the gap-jumping helper the sync scan
// relies on: it must find the lowest servable sequence at or above a
// point without walking the (possibly astronomically wide) hole between.
func TestStoreNextRetained(t *testing.T) {
	s := NewStore(Retention{MaxPackets: 4})
	defer s.Close()
	if got := s.NextRetained(1); got != 0 {
		t.Fatalf("empty store NextRetained = %d, want 0", got)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		s.Put(seq, []byte("x"), tBase)
	}
	// MaxPackets 4: seqs 1-2 evicted, 3-6 retained.
	if got := s.NextRetained(1); got != 3 {
		t.Fatalf("NextRetained(1) = %d, want 3", got)
	}
	if got := s.NextRetained(4); got != 4 {
		t.Fatalf("NextRetained(4) = %d, want 4", got)
	}
	if got := s.NextRetained(7); got != 0 {
		t.Fatalf("NextRetained(7) = %d, want 0", got)
	}
	// A forged skip far ahead must not make the lookup walk the gap.
	s.Advance(1 << 60)
	s.Put(1<<60+5, []byte("y"), tBase)
	if got := s.NextRetained(7); got != 1<<60+5 {
		t.Fatalf("NextRetained across wide gap = %d, want %d", got, uint64(1<<60+5))
	}
}
