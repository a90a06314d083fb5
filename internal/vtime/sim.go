package vtime

import (
	"container/heap"
	"fmt"
	"sync/atomic"
	"time"
)

// Sim is a deterministic discrete-event simulated clock. Events scheduled at
// the same instant fire in the order they were scheduled. Sim is not safe
// for concurrent use: all callbacks execute synchronously inside Run,
// RunUntil, RunFor or Step, on the calling goroutine.
//
// Internally events live in a pluggable scheduler. The default is a
// hierarchical timer wheel (wheel.go) with O(1) schedule/cancel/reset for
// near-future timers; the original container/heap implementation is kept
// behind UseHeapScheduler as a differential-testing reference. Both order
// events identically by (deadline, scheduling sequence), so traces are
// byte-identical across the two.
//
// The zero value is not usable; construct with NewSim.
type Sim struct {
	now      time.Time
	start    time.Time
	sched    scheduler
	nextSeq  uint64
	running  bool
	pending  int
	executed uint64
	// free holds fired Post records for reuse; a posted event has no
	// handle, so nothing can reach it after it fires.
	free []*event
}

// forceHeap selects the legacy heap scheduler for subsequently created
// Sims. Test-only: flipped by differential tests and the perf baseline
// runner; production code never touches it.
var forceHeap atomic.Bool

// UseHeapScheduler switches Sims created after the call to the legacy
// container/heap event queue (true) or the default timer wheel (false).
// It exists so differential tests and baseline benchmarks can run the
// exact pre-wheel scheduler; it is not part of the supported API surface.
func UseHeapScheduler(on bool) { forceHeap.Store(on) }

// HeapSchedulerForced reports the current setting of UseHeapScheduler.
func HeapSchedulerForced() bool { return forceHeap.Load() }

// NewSim returns a simulated clock whose current time is start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start, start: start}
	if forceHeap.Load() {
		s.sched = &heapSched{}
	} else {
		s.sched = newWheelSched()
	}
	return s
}

// newHeapSim returns a Sim on the legacy heap scheduler regardless of the
// global knob (test helper).
func newHeapSim(start time.Time) *Sim {
	return &Sim{now: start, start: start, sched: &heapSched{}}
}

// newWheelSim returns a Sim on the timer wheel regardless of the global
// knob (test helper).
func newWheelSim(start time.Time) *Sim {
	return &Sim{now: start, start: start, sched: newWheelSched()}
}

// Now implements Clock.
func (s *Sim) Now() time.Time { return s.now }

// AfterFunc implements Clock. The callback runs when simulated time reaches
// now+d during a subsequent (or the current) Run call.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	return s.AfterFuncUnless(d, nil, fn)
}

// AfterFuncUnless is AfterFunc with a guard read at fire time: if *skip
// is then true, the event still fires and counts as executed, but fn is
// not called. It spares a caller that must silence a whole set of timers
// at once (netsim's crashed handlers) a guarding closure per timer. A nil
// skip never skips.
func (s *Sim) AfterFuncUnless(d time.Duration, skip *bool, fn func()) Timer {
	if fn == nil {
		panic("vtime: AfterFunc with nil callback")
	}
	ev := &event{sim: s, skip: skip}
	s.arm(ev, d, fn)
	return ev
}

// Post schedules fn in exactly the (deadline, sequence) slot AfterFunc
// would give it, but returns no handle: the event can be neither stopped
// nor reset, so its record is recycled once it fires. With fn bound once
// by the caller, a warmed Post does not allocate.
func (s *Sim) Post(d time.Duration, fn func()) {
	if fn == nil {
		panic("vtime: Post with nil callback")
	}
	var ev *event
	if k := len(s.free); k > 0 {
		ev, s.free = s.free[k-1], s.free[:k-1]
		// A new generation: no entry recorded under the old one can fire
		// the recycled record.
		ev.gen++
	} else {
		ev = &event{sim: s, posted: true}
	}
	s.arm(ev, d, fn)
}

// arm gives an event its deadline and sequence number and schedules it.
func (s *Sim) arm(ev *event, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	ev.at = s.now.Add(d)
	ev.atNS = ev.at.Sub(s.start).Nanoseconds()
	ev.seq = s.nextSeq
	ev.fn = fn
	s.nextSeq++
	s.sched.schedule(ev)
	s.pending++
}

// Len returns the number of pending (not yet fired, not stopped) events.
func (s *Sim) Len() int { return s.pending }

// Executed returns the number of events that have fired so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Step fires the single earliest pending event, advancing simulated time to
// its deadline. It reports whether an event fired.
func (s *Sim) Step() bool { return s.step() }

// Run fires events until none remain. Callbacks may schedule further events.
func (s *Sim) Run() {
	s.enter()
	defer s.exit()
	for s.step() {
	}
}

// RunUntil fires events with deadlines at or before t, then sets the clock
// to t (if t is later than the last event fired).
func (s *Sim) RunUntil(t time.Time) {
	s.enter()
	defer s.exit()
	for {
		ev := s.sched.peek()
		if ev == nil || ev.at.After(t) {
			break
		}
		s.step()
	}
	if t.After(s.now) {
		s.now = t
	}
}

// RunFor advances the clock by d, firing all events that fall due.
func (s *Sim) RunFor(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: RunFor with negative duration %v", d))
	}
	s.RunUntil(s.now.Add(d))
}

// step pops and fires the earliest live event.
func (s *Sim) step() bool {
	ev := s.sched.pop()
	if ev == nil {
		return false
	}
	s.pending--
	if ev.at.After(s.now) {
		s.now = ev.at
	}
	ev.fired = true
	s.executed++
	fn := ev.fn
	if ev.posted {
		ev.fn = nil
		s.free = append(s.free, ev)
	}
	if ev.skip == nil || !*ev.skip {
		fn()
	}
	return true
}

func (s *Sim) enter() {
	if s.running {
		panic("vtime: re-entrant Run on Sim (callbacks must not call Run)")
	}
	s.running = true
}

func (s *Sim) exit() { s.running = false }

// scheduler is the pluggable event queue behind Sim. Both implementations
// return events in strict (atNS, seq) order and drop stopped or
// superseded (re-armed) events lazily.
type scheduler interface {
	// schedule inserts a freshly created event.
	schedule(ev *event)
	// reschedule re-queues ev after Reset updated at/atNS/seq; later
	// reports that ev was pending and its deadline did not move earlier.
	reschedule(ev *event, later bool)
	// pop removes and returns the earliest live event, or nil.
	pop() *event
	// peek returns the earliest live event without removing it, or nil.
	peek() *event
}

type event struct {
	sim  *Sim
	at   time.Time
	atNS int64 // at relative to the sim epoch, for the wheel
	seq  uint64
	fn   func()
	skip *bool // AfterFuncUnless guard: fn is not called while *skip
	// gen invalidates stale wheel entries: it is bumped whenever the event
	// is queued afresh (a Reset the wheel cannot absorb, a recycled Post
	// record), so entries recorded under an older generation are discarded
	// when encountered.
	gen     uint32
	index   int // heap scheduler bookkeeping
	stopped bool
	fired   bool
	inHeap  bool
	posted  bool // created by Post: recycled through Sim.free after firing
}

// Stop implements Timer. The event is removed lazily from the scheduler.
func (ev *event) Stop() bool {
	if ev.stopped || ev.fired {
		return false
	}
	ev.stopped = true
	ev.sim.pending--
	return true
}

// Reset implements Timer: it re-arms the event to fire d from now with the
// original callback, reusing the handle whether the event is pending,
// stopped, or already fired (including from inside its own callback).
func (ev *event) Reset(d time.Duration) bool {
	s := ev.sim
	if d < 0 {
		d = 0
	}
	wasPending := !ev.stopped && !ev.fired
	prevNS := ev.atNS
	ev.at = s.now.Add(d)
	ev.atNS = ev.at.Sub(s.start).Nanoseconds()
	ev.seq = s.nextSeq
	s.nextSeq++
	if !wasPending {
		ev.stopped, ev.fired = false, false
		s.pending++
	}
	s.sched.reschedule(ev, wasPending && ev.atNS >= prevNS)
	return wasPending
}

// heapSched is the original global min-heap scheduler, retained as the
// differential-testing reference behind UseHeapScheduler.
type heapSched struct {
	queue eventQueue
}

func (h *heapSched) schedule(ev *event) { heap.Push(&h.queue, ev) }

func (h *heapSched) reschedule(ev *event, _ bool) {
	if ev.inHeap {
		heap.Fix(&h.queue, ev.index)
	} else {
		heap.Push(&h.queue, ev)
	}
}

func (h *heapSched) pop() *event {
	for h.queue.Len() > 0 {
		ev := heap.Pop(&h.queue).(*event)
		if ev.stopped {
			continue
		}
		return ev
	}
	return nil
}

func (h *heapSched) peek() *event {
	for h.queue.Len() > 0 {
		ev := h.queue.events[0]
		if !ev.stopped {
			return ev
		}
		heap.Pop(&h.queue)
	}
	return nil
}

// eventQueue is a min-heap ordered by (deadline, scheduling sequence).
type eventQueue struct {
	events []*event
}

func (q *eventQueue) Len() int { return len(q.events) }

func (q *eventQueue) Less(i, j int) bool {
	a, b := q.events[i], q.events[j]
	if a.atNS != b.atNS {
		return a.atNS < b.atNS
	}
	return a.seq < b.seq
}

func (q *eventQueue) Swap(i, j int) {
	q.events[i], q.events[j] = q.events[j], q.events[i]
	q.events[i].index = i
	q.events[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(q.events)
	ev.inHeap = true
	q.events = append(q.events, ev)
}

func (q *eventQueue) Pop() any {
	old := q.events
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.inHeap = false
	q.events = old[:n-1]
	return ev
}
