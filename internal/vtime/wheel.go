package vtime

import "math/bits"

// wheelSched is a hierarchical timer wheel. Time is bucketed into ticks of
// 2^tickShift ns (~65.5µs). Level 0 has one slot per tick over a 256-tick
// window; levels 1-3 each have 64 slots covering successively wider,
// cursor-aligned windows (≈1.07s, ≈68.7s, ≈73.3min). Events beyond the
// level-3 horizon wait in an overflow min-heap and migrate into the wheel
// when the cursor reaches their window.
//
// Entries are value records pointing at their event; Stop and Reset are
// O(1) because invalidation is lazy — a stopped flag or a generation bump
// makes the stale entry a no-op when its slot is eventually drained. A
// Reset that moves a pending event later only re-keys the event: its
// queued entry, now early, re-files itself under the event's current key
// when it reaches the near heap, so a timer re-armed on every packet
// holds one entry, not one per re-arm. Drained slot buffers go to a spare
// list that empty slots draw from, so the steady state allocates only
// when the busiest slots outgrow every buffer the wheel holds.
//
// Ordering contract (identical to the heap scheduler): events fire in
// strict (atNS, seq) order. Entries at or before the cursor tick sit in a
// small "near" heap ordered by exactly that key; all wheel entries are
// strictly after the cursor tick, so the near heap's minimum is always the
// global minimum.
const (
	tickShift = 16 // 65.536µs per tick

	l0Bits = 8 // 256 one-tick slots
	lvBits = 6 // 64 slots per higher level

	l1Shift = l0Bits            // tick >> 0 grouped by >>8 within the L1 window
	l2Shift = l0Bits + lvBits   // 14
	l3Shift = l0Bits + 2*lvBits // 20
	ovShift = l0Bits + 3*lvBits // 26: beyond the L3 window → overflow

	l0Mask = 1<<l0Bits - 1
	lvMask = 1<<lvBits - 1
)

// entry is one scheduled occurrence of an event. atNS and seq are copied
// at insert time so ordering is stable even if the event is later re-armed:
// an earlier deadline bumps gen, which discards this occurrence; a later
// one leaves it live but early, and peek re-files it.
type entry struct {
	ev   *event
	atNS int64
	seq  uint64
	gen  uint32
}

func (e entry) live() bool { return e.ev.gen == e.gen && !e.ev.stopped }

type wheelSched struct {
	// curTick is the next unexamined tick: every live entry with
	// atTick < curTick is in near; every wheel/overflow entry has
	// atTick >= curTick.
	curTick int64

	l0 [1 << l0Bits][]entry
	l1 [1 << lvBits][]entry
	l2 [1 << lvBits][]entry
	l3 [1 << lvBits][]entry

	l0bits [4]uint64
	l1bits uint64
	l2bits uint64
	l3bits uint64

	near     entryHeap
	overflow entryHeap

	// spare holds drained slot buffers, emptied, for empty slots to
	// take before they grow a buffer of their own.
	spare [][]entry
}

func newWheelSched() *wheelSched { return &wheelSched{} }

func (w *wheelSched) schedule(ev *event) {
	w.insert(entry{ev: ev, atNS: ev.atNS, seq: ev.seq, gen: ev.gen})
}

// reschedule keeps the queued entry of a pending event pushed later: no
// Reset ever moved the event before that entry's key, so the entry
// surfaces first and peek re-files it. Otherwise (an earlier deadline, or
// nothing live queued) a new generation orphans any old entry and a fresh
// one is queued.
func (w *wheelSched) reschedule(ev *event, later bool) {
	if !later {
		ev.gen++
		w.schedule(ev)
	}
}

// add appends e to a wheel slot, giving an empty slot a spare buffer.
func (w *wheelSched) add(slot *[]entry, e entry) {
	if k := len(w.spare); *slot == nil && k > 0 {
		*slot, w.spare = w.spare[k-1], w.spare[:k-1]
	}
	*slot = append(*slot, e)
}

// release returns a drained slot's buffer (never empty: its bit was set)
// to the spare list, cleared so it pins no event.
func (w *wheelSched) release(es []entry) {
	clear(es)
	w.spare = append(w.spare, es[:0])
}

func (w *wheelSched) insert(e entry) {
	t := e.atNS >> tickShift
	cur := w.curTick
	switch {
	case t < cur:
		w.near.push(e)
	case t>>l1Shift == cur>>l1Shift:
		s := t & l0Mask
		w.add(&w.l0[s], e)
		w.l0bits[s>>6] |= 1 << (s & 63)
	case t>>l2Shift == cur>>l2Shift:
		s := (t >> l1Shift) & lvMask
		w.add(&w.l1[s], e)
		w.l1bits |= 1 << s
	case t>>l3Shift == cur>>l3Shift:
		s := (t >> l2Shift) & lvMask
		w.add(&w.l2[s], e)
		w.l2bits |= 1 << s
	case t>>ovShift == cur>>ovShift:
		s := (t >> l3Shift) & lvMask
		w.add(&w.l3[s], e)
		w.l3bits |= 1 << s
	default:
		w.overflow.push(e)
	}
}

func (w *wheelSched) pop() *event {
	ev := w.peek()
	if ev != nil {
		w.near.popMin()
	}
	return ev
}

// peek discards dead entries from the near heap's top and re-files live
// ones its event has since moved past, until the top is due as keyed.
func (w *wheelSched) peek() *event {
	for {
		if len(w.near.es) > 0 {
			e := w.near.es[0]
			if !e.live() {
				w.near.popMin()
			} else if e.seq != e.ev.seq {
				w.near.popMin()
				w.schedule(e.ev) // same gen: the entry moves, it is not orphaned
			} else {
				return e.ev
			}
			continue
		}
		if !w.advance() {
			return nil
		}
	}
}

// advance moves curTick forward to just past the next non-empty level-0
// slot, draining that slot's live entries into the near heap, cascading
// higher levels as their windows are entered. Returns false when no
// entries remain anywhere.
func (w *wheelSched) advance() bool {
	for {
		// Whenever the cursor sits on a level-boundary (reached by the
		// climb below, by a boundary-crossing curTick++, or by overflow
		// migration), the slot covering the newly entered window must
		// cascade down before level 0 is scanned, highest level first.
		// The overflow heap is the topmost level: entering a new 2^26-tick
		// window (which can happen organically via curTick++ off the last
		// tick of the previous window, not only via migrateOverflow) must
		// pull that window's far timers into the wheel first, or they
		// would be stranded behind later-deadline entries inserted by
		// callbacks into the fresh window.
		if w.curTick&(1<<ovShift-1) == 0 {
			w.migrateWindow(w.curTick >> ovShift)
		}
		if w.curTick&(1<<l3Shift-1) == 0 {
			if s := w.curTick >> l3Shift & lvMask; w.l3bits&(1<<s) != 0 {
				w.cascade(&w.l3[s], &w.l3bits, s)
			}
		}
		if w.curTick&(1<<l2Shift-1) == 0 {
			if s := w.curTick >> l2Shift & lvMask; w.l2bits&(1<<s) != 0 {
				w.cascade(&w.l2[s], &w.l2bits, s)
			}
		}
		if w.curTick&(1<<l1Shift-1) == 0 {
			if s := w.curTick >> l1Shift & lvMask; w.l1bits&(1<<s) != 0 {
				w.cascade(&w.l1[s], &w.l1bits, s)
			}
		}
		// Next set L0 bit at or after the cursor's slot within the
		// current 256-tick window.
		if s, ok := next256(&w.l0bits, int(w.curTick&l0Mask)); ok {
			w.curTick = w.curTick&^l0Mask | int64(s)
			w.drainL0(s)
			w.curTick++ // tick examined; same-tick inserts now go to near
			if len(w.near.es) > 0 {
				return true
			}
			continue // slot held only stale entries
		}
		// L0 exhausted for this window: jump to the next non-empty L1
		// slot's base (the loop top cascades it).
		if i := int(w.curTick>>l1Shift)&lvMask + 1; i < 1<<lvBits {
			if s, ok := next64(w.l1bits, i); ok {
				w.curTick = w.curTick&^(1<<l2Shift-1) | int64(s)<<l1Shift
				continue
			}
		}
		// L1 window exhausted: jump to the next non-empty L2 slot's base.
		if i := int(w.curTick>>l2Shift)&lvMask + 1; i < 1<<lvBits {
			if s, ok := next64(w.l2bits, i); ok {
				w.curTick = w.curTick&^(1<<l3Shift-1) | int64(s)<<l2Shift
				continue
			}
		}
		// L2 window exhausted: jump to the next non-empty L3 slot's base.
		if i := int(w.curTick>>l3Shift)&lvMask + 1; i < 1<<lvBits {
			if s, ok := next64(w.l3bits, i); ok {
				w.curTick = w.curTick&^(1<<ovShift-1) | int64(s)<<l3Shift
				continue
			}
		}
		// Whole wheel exhausted: migrate the overflow window holding the
		// earliest far timer, if any.
		if !w.migrateOverflow() {
			return false
		}
	}
}

// drainL0 moves slot s's live entries into the near heap and releases
// its buffer.
func (w *wheelSched) drainL0(s int) {
	slot := w.l0[s]
	for _, e := range slot {
		if e.live() {
			w.near.push(e)
		}
	}
	w.l0[s] = nil
	w.l0bits[s>>6] &^= 1 << (s & 63)
	w.release(slot)
}

// cascade redistributes a higher-level slot after the cursor entered its
// window. Entries re-insert at a lower level (or near) by alignment.
func (w *wheelSched) cascade(slot *[]entry, bitsWord *uint64, s int64) {
	es := *slot
	*slot = nil
	*bitsWord &^= 1 << s
	for _, e := range es {
		if e.live() {
			w.insert(e)
		}
	}
	w.release(es)
}

// migrateOverflow jumps the cursor to the overflow minimum's level-3
// window and moves every overflow entry in that window into the wheel.
func (w *wheelSched) migrateOverflow() bool {
	if len(w.overflow.es) == 0 {
		return false
	}
	minTick := w.overflow.es[0].atNS >> tickShift
	w.curTick = minTick &^ (1<<ovShift - 1)
	w.migrateWindow(minTick >> ovShift)
	return true
}

// migrateWindow moves every overflow entry whose tick lies in the given
// 2^26-tick window into the wheel. Overflow entries are always at or after
// the cursor, so the window's entries form a prefix of the min-heap.
func (w *wheelSched) migrateWindow(win int64) {
	for len(w.overflow.es) > 0 && w.overflow.es[0].atNS>>tickShift>>ovShift == win {
		e := w.overflow.popMin()
		if e.live() {
			w.insert(e)
		}
	}
}

// next256 returns the lowest set bit index >= from in a 256-bit set.
func next256(b *[4]uint64, from int) (int, bool) {
	w := from >> 6
	if x := b[w] &^ (1<<(from&63) - 1); x != 0 {
		return w<<6 + bits.TrailingZeros64(x), true
	}
	for w++; w < 4; w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w]), true
		}
	}
	return 0, false
}

// next64 returns the lowest set bit index >= from in a 64-bit set.
func next64(b uint64, from int) (int, bool) {
	if x := b &^ (1<<from - 1); x != 0 {
		return bits.TrailingZeros64(x), true
	}
	return 0, false
}

// entryHeap is a binary min-heap of entries ordered by (atNS, seq),
// implemented directly (no container/heap interface boxing).
type entryHeap struct {
	es []entry
}

func (h *entryHeap) push(e entry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *entryHeap) popMin() entry {
	es := h.es
	min := es[0]
	n := len(es) - 1
	es[0] = es[n]
	es[n] = entry{}
	h.es = es[:n]
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && entryLess(es[l], es[sm]) {
			sm = l
		}
		if r < n && entryLess(es[r], es[sm]) {
			sm = r
		}
		if sm == i {
			break
		}
		es[i], es[sm] = es[sm], es[i]
		i = sm
	}
	return min
}

func entryLess(a, b entry) bool {
	if a.atNS != b.atNS {
		return a.atNS < b.atNS
	}
	return a.seq < b.seq
}
