// Package logger implements LBRM's logging service (§2.2): the log store,
// the primary logging server (with replication and failover support,
// §2.2.3), and the per-site secondary logging server (§2.2.1) that serves
// local retransmissions, aggregates NACKs toward the primary, and acts as a
// Designated Acker under statistical acknowledgement (§2.3).
package logger

import (
	"fmt"
	"time"

	"lbrm/internal/seqtrack"
	"lbrm/internal/wire"
)

// Retention bounds what a Store keeps. Zero fields mean unlimited; the
// paper notes that retention is application-specific ("useful lifetime" vs
// full persistence).
type Retention struct {
	// MaxPackets caps the number of stored packets per stream.
	MaxPackets int
	// MaxBytes caps the stored payload bytes per stream.
	MaxBytes int64
	// MaxAge expires packets older than this (enforced on Put and
	// EvictExpired).
	MaxAge time.Duration
	// SpillToDisk writes packets evicted from memory to an append-only
	// spill file instead of dropping them, so they stay servable (§2:
	// "writing them to disk once in-memory buffers are full").
	SpillToDisk bool
	// SpillDir is the directory for the spill file (default: os temp dir).
	SpillDir string
	// SpillMaxBytes bounds the bytes reachable on disk (0 = unlimited);
	// the oldest spilled packets are dropped beyond it.
	SpillMaxBytes int64
}

// Ring sizing. Sequence numbers are dense and monotonically increasing
// (they start at 1 and the sender allocates them contiguously), so the hot
// store is a ring indexed by seq&mask. Growth is bounded by a density
// check: the ring only widens while the live span stays within
// ringDensityFactor× the live entry count, so a forged far-ahead sequence
// number lands in the sparse side index instead of ballooning the ring.
const (
	minRingSlots      = 64
	ringDensityFactor = 8
)

// slot is one ring position. seq 0 marks an empty slot (sequence numbers
// start at 1).
type slot struct {
	seq uint64
	ref span
	at  int64 // arrival time, UnixNano (for MaxAge)
}

// sideEntry is a sparse-index entry: below-base backfill fetched for
// serving, or an out-of-window outlier that failed the density check.
type sideEntry struct {
	ref span
	at  int64
}

// Store is the sequence-indexed packet log for one stream. Sequence
// numbers start at 1. Eviction removes the lowest retained sequence number
// first; contiguity tracking (what has been *seen*) is unaffected by
// eviction.
//
// Payload bytes returned by Get alias the store's internal arena: they are
// valid until the next Put or eviction. Callers that retain must copy.
type Store struct {
	ret Retention

	// Hot path: the seq-indexed ring. slots is always a power of two;
	// entries live in the window [lo, lo+len(slots)). lo only advances.
	slots []slot
	lo    uint64
	count int // live ring entries

	// side holds sparse entries outside the ring window (cold path).
	side map[uint64]sideEntry

	arena arena
	bytes int64 // in-memory payload bytes (ring + side)

	// track holds the stream's sequence bookkeeping (contiguity, base
	// watermark, gaps).
	track seqtrack.Tracker
	// spill holds disk-resident evicted packets (nil until first spill).
	spill *spillFile
	// spillErrs counts spill failures (packet dropped instead).
	spillErrs int
}

// NewStore returns an empty store with the given retention policy.
func NewStore(ret Retention) *Store {
	return &Store{ret: ret, arena: newArena()}
}

// slotFor returns the ring slot holding seq, or nil.
func (s *Store) slotFor(seq uint64) *slot {
	if s.slots == nil || seq < s.lo || seq-s.lo >= uint64(len(s.slots)) {
		return nil
	}
	sl := &s.slots[seq&uint64(len(s.slots)-1)]
	if sl.seq != seq {
		return nil
	}
	return sl
}

// inMemory reports in-memory presence (ring or side index).
func (s *Store) inMemory(seq uint64) bool {
	if s.slotFor(seq) != nil {
		return true
	}
	_, ok := s.side[seq]
	return ok
}

// Put logs a packet. It returns false for duplicates (seq already seen) and
// for seq 0, true otherwise. The payload is copied into the store's arena.
// Sequence numbers at or below the base watermark are accepted as backfill
// (stored for serving, without contiguity bookkeeping).
func (s *Store) Put(seq uint64, data []byte, now time.Time) bool {
	if seq == 0 {
		return false
	}
	backfill := seq <= s.track.Base() && s.track.Contacted()
	if backfill {
		if s.inMemory(seq) {
			return false
		}
	} else if !s.track.Mark(seq) {
		return false
	}
	at := now.UnixNano()
	// Backfill sits below the live window by construction; keep it out of
	// the ring so it can never re-base the window under the live stream.
	if !backfill && s.ringPlace(seq) {
		sl := &s.slots[seq&uint64(len(s.slots)-1)]
		*sl = slot{seq: seq, ref: s.arena.alloc(data), at: at}
		s.count++
	} else {
		if s.side == nil {
			s.side = make(map[uint64]sideEntry)
		}
		s.side[seq] = sideEntry{ref: s.arena.alloc(data), at: at}
	}
	s.bytes += int64(len(data))
	s.evict(now)
	return true
}

// ringPlace makes the ring window cover seq, growing within the density
// bound. It reports false when seq belongs in the side index instead.
func (s *Store) ringPlace(seq uint64) bool {
	if s.slots == nil {
		s.slots = make([]slot, minRingSlots)
		s.lo = seq
		return true
	}
	if s.count == 0 {
		// Empty ring: restart the window wherever the stream is now.
		s.lo = seq
		return true
	}
	if seq < s.lo {
		return false
	}
	for seq-s.lo >= uint64(len(s.slots)) {
		span := seq - s.lo + 1
		// Dense streams grow; sparse outliers go to the side index.
		if span > uint64(ringDensityFactor)*uint64(s.count+1) &&
			uint64(len(s.slots)) >= minRingSlots*2 {
			return false
		}
		if s.ret.MaxPackets > 0 && s.count >= s.ret.MaxPackets {
			// Retention is about to drop the oldest packet anyway: advance
			// the window instead of growing.
			s.dropRing(s.ringOldest())
			continue
		}
		s.growRing()
	}
	return true
}

// growRing doubles the ring, re-placing live entries at their new indices.
func (s *Store) growRing() {
	old := s.slots
	oldMask := uint64(len(old) - 1)
	s.slots = make([]slot, len(old)*2)
	mask := uint64(len(s.slots) - 1)
	for seq := s.lo; seq < s.lo+uint64(len(old)); seq++ {
		sl := old[seq&oldMask]
		if sl.seq == seq {
			s.slots[seq&mask] = sl
		}
	}
}

// Get returns the stored payload for seq, from memory or the disk spill.
// The returned bytes alias the store's arena (valid until the next Put or
// eviction); spilled payloads are freshly read from disk.
func (s *Store) Get(seq uint64) ([]byte, bool) {
	if sl := s.slotFor(seq); sl != nil {
		return s.arena.get(sl.ref), true
	}
	if e, ok := s.side[seq]; ok {
		return s.arena.get(e.ref), true
	}
	if s.spill != nil {
		return s.spill.get(seq)
	}
	return nil, false
}

// Has reports whether the payload for seq is servable (in memory or on
// disk).
func (s *Store) Has(seq uint64) bool {
	if s.inMemory(seq) {
		return true
	}
	return s.spill != nil && s.spill.has(seq)
}

// InMemory reports whether seq's payload is held in memory (false for
// spilled or absent packets).
func (s *Store) InMemory(seq uint64) bool { return s.inMemory(seq) }

// SpillErrors returns the number of packets lost to spill-file failures.
func (s *Store) SpillErrors() int { return s.spillErrs }

// Close releases the disk spill file, if any.
func (s *Store) Close() error {
	if s.spill == nil {
		return nil
	}
	sp := s.spill
	s.spill = nil
	return sp.close()
}

// Seen reports whether seq has ever been logged or skipped by the base
// watermark.
func (s *Store) Seen(seq uint64) bool { return s.track.Seen(seq) }

// Evicted reports whether seq was logged and later dropped by retention —
// as opposed to never having been held at all (below the base watermark).
// Spilled packets are not evicted: they remain servable.
func (s *Store) Evicted(seq uint64) bool {
	return seq > s.track.Base() && s.track.Seen(seq) && !s.Has(seq)
}

// SetBase declares that history up to and including seq is deliberately
// skipped (a late joiner starting mid-stream). It applies only on the very
// first contact with the stream.
func (s *Store) SetBase(seq uint64) { s.track.SetBase(seq) }

// Base returns the skip watermark.
func (s *Store) Base() uint64 { return s.track.Base() }

// Advance force-skips history up to seq (see seqtrack.Tracker.Advance):
// the skipped packets count as seen but are not stored.
func (s *Store) Advance(seq uint64) { s.track.Advance(seq) }

// Len returns the number of stored packets.
func (s *Store) Len() int { return s.count + len(s.side) }

// Bytes returns the stored payload bytes.
func (s *Store) Bytes() int64 { return s.bytes }

// Contiguous returns the highest c such that every sequence number in
// [1, c] has been seen (0 when seq 1 is still missing) — the cumulative
// acknowledgement value for LogSyncAck and SourceAck.
func (s *Store) Contiguous() uint64 { return s.track.Contiguous() }

// Highest returns the largest sequence number seen.
func (s *Store) Highest() uint64 { return s.track.Highest() }

// AppendMissing appends up to maxRanges ranges of sequence numbers in
// (Contiguous, hi] that have not been seen to dst and returns the extended
// slice (see seqtrack.Tracker.AppendMissing). hi of 0 means Highest().
func (s *Store) AppendMissing(dst []wire.SeqRange, hi uint64, maxRanges int) []wire.SeqRange {
	return s.track.AppendMissing(dst, hi, maxRanges)
}

// NextRetained returns the smallest retained (servable) sequence number at
// or above seq, or 0 when nothing at or above seq is held. Cost is bounded
// by the number of live entries, never by the width of evicted or skipped
// gaps — a forged watermark cannot turn a scan over the log into an
// unbounded per-sequence walk.
func (s *Store) NextRetained(seq uint64) uint64 {
	best := uint64(0)
	consider := func(q uint64) {
		if q >= seq && (best == 0 || q < best) {
			best = q
		}
	}
	if s.count > 0 {
		mask := uint64(len(s.slots) - 1)
		start := s.lo
		if seq > start {
			start = seq
		}
		for q := start; q < s.lo+uint64(len(s.slots)); q++ {
			if sl := &s.slots[q&mask]; sl.seq == q {
				consider(q)
				break
			}
		}
	}
	for q := range s.side {
		consider(q)
	}
	if s.spill != nil {
		for q := range s.spill.index {
			consider(q)
		}
	}
	return best
}

// EvictExpired drops packets older than MaxAge.
func (s *Store) EvictExpired(now time.Time) { s.evictAge(now) }

func (s *Store) evict(now time.Time) {
	s.evictAge(now)
	for (s.ret.MaxPackets > 0 && s.Len() > s.ret.MaxPackets) ||
		(s.ret.MaxBytes > 0 && s.bytes > s.ret.MaxBytes) {
		if !s.evictOldest() {
			return
		}
	}
}

// evictAge walks retained packets from the lowest sequence number and
// evicts while they are expired, stopping at the first fresh one. A
// backfilled old sequence number with a recent arrival time therefore
// shields higher (older-by-arrival) packets until it is reached — same
// best-effort property the previous insertion-ordered store had.
func (s *Store) evictAge(now time.Time) {
	if s.ret.MaxAge <= 0 {
		return
	}
	cutoff := now.Add(-s.ret.MaxAge).UnixNano()
	for len(s.side) > 0 {
		seq, e, ok := s.sideOldest()
		if !ok || e.at > cutoff {
			break
		}
		s.dropSide(seq, e)
	}
	for s.count > 0 {
		sl := s.ringOldest()
		if sl.at > cutoff {
			return
		}
		s.dropRing(sl)
	}
}

// ringOldest returns the lowest-seq live ring slot, advancing lo past
// empty positions (amortized O(1): each position is skipped once per
// window pass).
func (s *Store) ringOldest() *slot {
	mask := uint64(len(s.slots) - 1)
	for {
		sl := &s.slots[s.lo&mask]
		if sl.seq == s.lo {
			return sl
		}
		s.lo++
	}
}

// sideOldest returns the lowest-seq side entry (cold path: linear scan of
// the sparse index).
func (s *Store) sideOldest() (uint64, sideEntry, bool) {
	if len(s.side) == 0 {
		return 0, sideEntry{}, false
	}
	var (
		minSeq uint64
		best   sideEntry
		found  bool
	)
	for seq, e := range s.side {
		if !found || seq < minSeq {
			minSeq, best, found = seq, e, true
		}
	}
	return minSeq, best, found
}

// evictOldest drops the lowest retained sequence number (side entries sit
// below the ring window by construction, except out-of-window outliers).
func (s *Store) evictOldest() bool {
	sideSeq, sideE, haveSide := s.sideOldest()
	if haveSide && (s.count == 0 || sideSeq < s.lo) {
		s.dropSide(sideSeq, sideE)
		return true
	}
	if s.count > 0 {
		s.dropRing(s.ringOldest())
		return true
	}
	if haveSide {
		s.dropSide(sideSeq, sideE)
		return true
	}
	return false
}

// dropRing evicts one ring slot (spilling first when enabled).
func (s *Store) dropRing(sl *slot) {
	s.spillOut(sl.seq, s.arena.get(sl.ref))
	s.bytes -= int64(sl.ref.n)
	s.arena.release(sl.ref)
	*sl = slot{}
	s.count--
	s.lo++
}

// dropSide evicts one side entry (spilling first when enabled).
func (s *Store) dropSide(seq uint64, e sideEntry) {
	s.spillOut(seq, s.arena.get(e.ref))
	s.bytes -= int64(e.ref.n)
	s.arena.release(e.ref)
	delete(s.side, seq)
}

// spillOut moves one evicted payload to the disk spill file when enabled.
func (s *Store) spillOut(seq uint64, data []byte) {
	if !s.ret.SpillToDisk {
		return
	}
	if s.spill == nil {
		sp, err := newSpillFile(s.ret.SpillDir, s.ret.SpillMaxBytes)
		if err != nil {
			s.spillErrs++
			return
		}
		s.spill = sp
	}
	if err := s.spill.put(seq, data); err != nil {
		s.spillErrs++
	}
}

// evictInterval derives the periodic retention-tick spacing from a
// policy: a quarter of MaxAge, clamped to [100ms, 1min]; 0 when age-based
// retention is off.
func evictInterval(ret Retention) time.Duration {
	if ret.MaxAge <= 0 {
		return 0
	}
	d := ret.MaxAge / 4
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// StreamKey identifies one data stream at a logger: the pair of source and
// group.
type StreamKey struct {
	Source wire.SourceID
	Group  wire.GroupID
}

// String renders the key for logs.
func (k StreamKey) String() string {
	return fmt.Sprintf("src=%d/grp=%d", k.Source, k.Group)
}

// KeyOf extracts the stream key from a packet.
func KeyOf(p *wire.Packet) StreamKey {
	return StreamKey{Source: p.Source, Group: p.Group}
}
