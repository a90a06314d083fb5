package vtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// epoch matches the netsim simulation start so test timelines look like
// real runs; any fixed instant works.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// firing is one observed callback execution.
type firing struct {
	id int
	at time.Time
}

// simDriver drives one Sim through a scripted workload, recording the
// firing order. Timers are retained by script index so Stop/Reset ops hit
// the same logical timer on both implementations.
type simDriver struct {
	sim    *Sim
	timers []Timer
	order  []firing
}

func newDriver(s *Sim) *simDriver { return &simDriver{sim: s} }

func (d *simDriver) schedule(id int, delay time.Duration, nested func(*simDriver, int)) {
	d.timers = append(d.timers, nil)
	idx := len(d.timers) - 1
	d.timers[idx] = d.sim.AfterFunc(delay, func() {
		d.order = append(d.order, firing{id: id, at: d.sim.Now()})
		if nested != nil {
			nested(d, id)
		}
	})
}

// op is one scripted action in the randomized workload.
type op struct {
	kind  int // 0 schedule, 1 stop, 2 reset, 3 runFor
	delay time.Duration
	tgt   int // timer index for stop/reset
}

// genScript builds a deterministic random workload from seed. Delays are
// drawn across every wheel horizon: same-tick, level 0-3, and overflow.
func genScript(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	horizons := []time.Duration{
		0,
		30 * time.Microsecond,  // sub-tick
		3 * time.Millisecond,   // level 0
		300 * time.Millisecond, // level 1
		20 * time.Second,       // level 2
		10 * time.Minute,       // level 3
		2 * time.Hour,          // overflow
		100 * time.Hour,        // deep overflow (multiple windows)
	}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 5:
			h := horizons[rng.Intn(len(horizons))]
			d := time.Duration(0)
			if h > 0 {
				d = time.Duration(rng.Int63n(int64(h)))
			}
			ops = append(ops, op{kind: 0, delay: d})
		case k < 6:
			ops = append(ops, op{kind: 1, tgt: rng.Int()})
		case k < 8:
			h := horizons[rng.Intn(len(horizons))]
			d := time.Duration(0)
			if h > 0 {
				d = time.Duration(rng.Int63n(int64(h)))
			}
			ops = append(ops, op{kind: 2, tgt: rng.Int(), delay: d})
		default:
			ops = append(ops, op{kind: 3, delay: time.Duration(rng.Int63n(int64(time.Minute)))})
		}
	}
	return ops
}

// runScript replays a script against a driver. Nested callbacks schedule
// and reset further timers, exercising insert-during-drain paths.
func runScript(t *testing.T, d *simDriver, ops []op, seed int64) {
	t.Helper()
	nestRng := rand.New(rand.NewSource(seed * 7919))
	var nested func(dd *simDriver, parent int)
	nested = func(dd *simDriver, parent int) {
		// Deterministic per-firing decisions: keyed off the shared rng,
		// whose draw order matches because the firing order must match.
		switch nestRng.Intn(6) {
		case 0:
			dd.schedule(100000+len(dd.timers), 0, nil)
		case 1:
			dd.schedule(200000+len(dd.timers), 777*time.Microsecond, nil)
		case 2:
			if len(dd.timers) > 0 {
				dd.timers[nestRng.Intn(len(dd.timers))].Reset(time.Duration(nestRng.Int63n(int64(5 * time.Second))))
			}
		case 3:
			if len(dd.timers) > 0 {
				dd.timers[nestRng.Intn(len(dd.timers))].Stop()
			}
		}
	}
	id := 0
	for _, o := range ops {
		switch o.kind {
		case 0:
			d.schedule(id, o.delay, nested)
			id++
		case 1:
			if len(d.timers) > 0 {
				d.timers[o.tgt%len(d.timers)].Stop()
			}
		case 2:
			if len(d.timers) > 0 {
				d.timers[o.tgt%len(d.timers)].Reset(o.delay)
			}
		case 3:
			d.sim.RunFor(o.delay)
		}
	}
	d.sim.Run()
}

// TestWheelMatchesHeapModel is the property test: identical randomized
// schedule/Stop/Reset workloads on the timer wheel and on the reference
// heap scheduler must produce identical firing sequences (ids and
// instants), identical executed counts, and identical end states.
func TestWheelMatchesHeapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := genScript(seed, 400)
			wheel := newDriver(newWheelSim(epoch))
			heap := newDriver(newHeapSim(epoch))
			runScript(t, wheel, ops, seed)
			runScript(t, heap, ops, seed)
			if len(wheel.order) != len(heap.order) {
				t.Fatalf("firing count diverged: wheel %d heap %d", len(wheel.order), len(heap.order))
			}
			for i := range wheel.order {
				if wheel.order[i] != heap.order[i] {
					t.Fatalf("firing %d diverged: wheel %+v heap %+v", i, wheel.order[i], heap.order[i])
				}
			}
			if w, h := wheel.sim.Executed(), heap.sim.Executed(); w != h {
				t.Fatalf("executed diverged: wheel %d heap %d", w, h)
			}
			if w, h := wheel.sim.Len(), heap.sim.Len(); w != h {
				t.Fatalf("pending diverged: wheel %d heap %d", w, h)
			}
			if w, h := wheel.sim.Now(), heap.sim.Now(); !w.Equal(h) {
				t.Fatalf("clock diverged: wheel %v heap %v", w, h)
			}
		})
	}
}

// TestWheelSameInstantFIFO checks the FIFO tie-break across every insert
// path: events landing on one instant via direct schedule, via Reset, and
// via cascade from a higher level must fire in schedule-sequence order.
func TestWheelSameInstantFIFO(t *testing.T) {
	s := newWheelSim(epoch)
	target := 90 * time.Second // level-2 horizon at schedule time
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	s.AfterFunc(target, rec(0)) // lands in L2, cascades twice
	s.AfterFunc(target, rec(1))
	tm := s.AfterFunc(time.Hour, rec(2))
	s.RunFor(89 * time.Second)
	// Reset past the pending cascade: same instant, later seq.
	tm.Reset(time.Second)
	s.AfterFunc(time.Second, rec(3))
	s.Run()
	want := []int{0, 1, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("same-instant order = %v, want %v", got, want)
	}
}

// TestWheelResetAcrossCascade re-arms timers back and forth across level
// boundaries — the Reset-past-cascade cases: a far timer pulled near must
// fire at the near deadline exactly once; a near timer pushed far must not
// fire early even though its stale entry is still sitting in a near slot.
func TestWheelResetAcrossCascade(t *testing.T) {
	s := newWheelSim(epoch)
	fired := map[string]time.Time{}
	far := s.AfterFunc(45*time.Minute, func() { fired["far"] = s.Now() })
	near := s.AfterFunc(2*time.Millisecond, func() { fired["near"] = s.Now() })

	far.Reset(5 * time.Millisecond) // L3 → L0
	near.Reset(30 * time.Minute)    // L0 → L3
	s.RunFor(time.Second)
	if want := epoch.Add(5 * time.Millisecond); !fired["far"].Equal(want) {
		t.Fatalf("far fired at %v, want %v", fired["far"], want)
	}
	if _, ok := fired["near"]; ok {
		t.Fatalf("near fired early at %v", fired["near"])
	}
	s.RunFor(30 * time.Minute)
	if want := epoch.Add(30 * time.Minute); !fired["near"].Equal(want) {
		t.Fatalf("near fired at %v, want %v", fired["near"], want)
	}
	if got := s.Executed(); got != 2 {
		t.Fatalf("executed = %d, want 2 (no duplicate firings from stale entries)", got)
	}
}

// TestWheelOverflowMigration parks timers several level-3 windows out and
// checks they migrate back into the wheel in order, interleaved correctly
// with near timers scheduled after the cursor jumps.
func TestWheelOverflowMigration(t *testing.T) {
	s := newWheelSim(epoch)
	var got []int
	s.AfterFunc(300*time.Hour, func() { got = append(got, 3) })
	s.AfterFunc(2*time.Hour, func() {
		got = append(got, 1)
		s.AfterFunc(time.Millisecond, func() { got = append(got, 2) })
	})
	s.AfterFunc(time.Minute, func() { got = append(got, 0) })
	s.Run()
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 2, 3}) {
		t.Fatalf("overflow firing order = %v", got)
	}
	if !s.Now().Equal(epoch.Add(300 * time.Hour)) {
		t.Fatalf("clock = %v", s.Now())
	}
}

// TestWheelOverflowBoundaryCrossing pins the organic window-crossing case:
// the cursor enters a new 2^26-tick overflow window via curTick++ off the
// last tick of the previous window (not via migrateOverflow), while an
// overflow timer A is pending early in the new window and the firing
// callback schedules a later-deadline event D directly into the wheel.
// A must still fire before D; a buggy wheel strands A in the overflow heap
// and fires D first. The randomized property test cannot reliably hit this
// one-tick-in-2^26 alignment, so it is pinned here and cross-checked
// against the reference heap scheduler.
func TestWheelOverflowBoundaryCrossing(t *testing.T) {
	const (
		tick   = time.Duration(1) << tickShift // 65.536µs
		window = tick << (ovShift)             // 2^26 ticks ≈ 73.3min
	)
	run := func(s *Sim) []firing {
		var got []firing
		rec := func(id int) func() {
			return func() { got = append(got, firing{id: id, at: s.Now()}) }
		}
		// L: last tick of window 0; its callback schedules D at tick
		// 2^26+101, which lands in L0 of the freshly entered window.
		s.AfterFunc(window-tick, func() {
			got = append(got, firing{id: 0, at: s.Now()})
			s.AfterFunc(101*tick, rec(3))
		})
		// A: early in window 1 — in the overflow heap at schedule time,
		// with an earlier deadline than D.
		s.AfterFunc(window+5*tick, rec(1))
		// Same-window overflow timer after A, and one a window further
		// out: both must stay correctly ordered behind A.
		s.AfterFunc(window+50*tick, rec(2))
		s.AfterFunc(2*window+tick, rec(4))
		s.Run()
		return got
	}
	wheel := run(newWheelSim(epoch))
	heap := run(newHeapSim(epoch))
	if fmt.Sprint(wheel) != fmt.Sprint(heap) {
		t.Fatalf("wheel diverged from heap:\nwheel %v\nheap  %v", wheel, heap)
	}
	for i, want := range []int{0, 1, 2, 3, 4} {
		if wheel[i].id != want {
			t.Fatalf("firing order = %v, want ids [0 1 2 3 4]", wheel)
		}
	}
}

// TestUseHeapScheduler verifies the test-only knob actually switches the
// scheduler for new Sims and restores cleanly.
func TestUseHeapScheduler(t *testing.T) {
	UseHeapScheduler(true)
	defer UseHeapScheduler(false)
	if !HeapSchedulerForced() {
		t.Fatal("knob did not latch")
	}
	s := NewSim(epoch)
	if _, ok := s.sched.(*heapSched); !ok {
		t.Fatalf("NewSim under knob built %T, want *heapSched", s.sched)
	}
	UseHeapScheduler(false)
	s = NewSim(epoch)
	if _, ok := s.sched.(*wheelSched); !ok {
		t.Fatalf("NewSim default built %T, want *wheelSched", s.sched)
	}
}

// postDriver replays a script that mixes handle-less Post events with
// AfterFunc timers, Stop and Reset, and keeps a model of the queue: the
// deadline of every posted event not yet fired, and the armed state of
// every timer. Posted records are recycled, so a record that fired twice,
// fired through a stale wheel entry, or fired off its own deadline shows
// up against the model.
type postDriver struct {
	t       *testing.T
	sim     *Sim
	rng     *rand.Rand
	timers  []Timer
	armed   []bool
	due     map[int]time.Time // posted id → deadline, until it fires
	pending int               // the model's Len()
	posts   int
	order   []firing
}

func newPostDriver(t *testing.T, s *Sim, seed int64) *postDriver {
	return &postDriver{t: t, sim: s, rng: rand.New(rand.NewSource(seed * 7919)), due: map[int]time.Time{}}
}

func (d *postDriver) after(id int, delay time.Duration) {
	idx := len(d.timers)
	d.timers = append(d.timers, d.sim.AfterFunc(delay, func() {
		d.armed[idx] = false
		d.pending--
		d.fire(id)
	}))
	d.armed = append(d.armed, true)
	d.pending++
}

func (d *postDriver) post(id int, delay time.Duration) {
	d.due[id] = d.sim.Now().Add(max(delay, 0))
	d.pending++
	d.posts++
	d.sim.Post(delay, func() {
		want, ok := d.due[id]
		if !ok {
			d.t.Fatalf("post %d fired twice", id)
		}
		if now := d.sim.Now(); !now.Equal(want) {
			d.t.Fatalf("post %d fired at %v, due %v", id, now, want)
		}
		delete(d.due, id)
		d.pending--
		d.fire(id)
	})
}

func (d *postDriver) stop(i int) {
	if got := d.timers[i].Stop(); got != d.armed[i] {
		d.t.Fatalf("timer %d: Stop = %v, model armed = %v", i, got, d.armed[i])
	}
	if d.armed[i] {
		d.armed[i] = false
		d.pending--
	}
}

func (d *postDriver) reset(i int, delay time.Duration) {
	if got := d.timers[i].Reset(delay); got != d.armed[i] {
		d.t.Fatalf("timer %d: Reset = %v, model armed = %v", i, got, d.armed[i])
	}
	if !d.armed[i] {
		d.armed[i] = true
		d.pending++
	}
}

// fire records one firing, checks the queue length against the model,
// and lets the firing schedule, post, reset or stop further work — the
// same draw on both schedulers, whose firing orders must match.
func (d *postDriver) fire(id int) {
	d.order = append(d.order, firing{id: id, at: d.sim.Now()})
	d.checkLen()
	if id >= 100000 {
		return
	}
	next := 100000 + len(d.order)
	switch d.rng.Intn(8) {
	case 0:
		d.post(next, 0)
	case 1:
		d.post(next, time.Duration(d.rng.Int63n(int64(3*time.Second))))
	case 2:
		d.after(next, 777*time.Microsecond)
	case 3:
		d.reset(d.rng.Intn(len(d.timers)), time.Duration(d.rng.Int63n(int64(5*time.Second))))
	case 4:
		d.stop(d.rng.Intn(len(d.timers)))
	}
}

func (d *postDriver) checkLen() {
	if got := d.sim.Len(); got != d.pending {
		d.t.Fatalf("Len() = %d, model pending = %d", got, d.pending)
	}
}

// TestPostMatchesHeapModel is TestWheelMatchesHeapModel with Post in the
// mix: random posts interleave with AfterFunc, Stop and Reset across every
// wheel level and the overflow heap, top-level and from inside callbacks.
// The wheel and the reference heap must fire identically; Len() and
// Executed() must match the model exactly; and every posted event must
// fire exactly once, at its deadline, although its record is recycled.
func TestPostMatchesHeapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := genScript(seed, 600)
			flip := rand.New(rand.NewSource(-seed))
			run := func(s *Sim) *postDriver {
				d := newPostDriver(t, s, seed)
				d.after(-1, time.Hour) // a timer to Stop/Reset from the start
				for id, o := range ops {
					switch o.kind {
					case 0:
						d.after(id, o.delay)
					case 1:
						d.stop(o.tgt % len(d.timers))
					case 2:
						d.reset(o.tgt%len(d.timers), o.delay)
					case 3:
						d.sim.RunFor(o.delay)
					}
					if o.kind == 3 || flip.Intn(2) == 0 {
						d.post(-2-id, o.delay)
					}
					d.checkLen()
				}
				flip.Seed(-seed)
				d.sim.Run()
				d.checkLen()
				if d.pending != 0 || len(d.due) != 0 {
					t.Fatalf("queue drained with %d pending, %d posts unfired", d.pending, len(d.due))
				}
				if got := d.sim.Executed(); got != uint64(len(d.order)) {
					t.Fatalf("Executed() = %d, %d firings", got, len(d.order))
				}
				if free := len(d.sim.free); free == 0 || free >= d.posts {
					t.Fatalf("%d posts left %d recycled records: recycling not exercised", d.posts, free)
				}
				return d
			}
			wheel := run(newWheelSim(epoch))
			heap := run(newHeapSim(epoch))
			if len(wheel.order) != len(heap.order) {
				t.Fatalf("firing count diverged: wheel %d heap %d", len(wheel.order), len(heap.order))
			}
			for i := range wheel.order {
				if wheel.order[i] != heap.order[i] {
					t.Fatalf("firing %d diverged: wheel %+v heap %+v", i, wheel.order[i], heap.order[i])
				}
			}
		})
	}
}

// TestWheelResetInterleavingsMatchHeap aims the differential at the
// lazy re-key: timers are reset later than their current deadline (the
// wheel keeps the queued entry and re-files it when it surfaces), reset
// earlier (a new generation orphans the entry), stopped, reset after a
// Stop, and reset from their own callbacks, with the clock advanced in
// between across every wheel level. The wheel and the reference heap must
// fire identically.
func TestWheelResetInterleavingsMatchHeap(t *testing.T) {
	horizons := []time.Duration{time.Millisecond, 300 * time.Millisecond, 20 * time.Second, 10 * time.Minute, 2 * time.Hour}
	for seed := int64(1); seed <= 30; seed++ {
		run := func(s *Sim) []firing {
			rng := rand.New(rand.NewSource(seed))
			draw := func() time.Duration { return time.Duration(rng.Int63n(int64(horizons[rng.Intn(len(horizons))]))) }
			var order []firing
			var timers []Timer
			var due []time.Time
			reset := func(i int, d time.Duration) {
				timers[i].Reset(d)
				due[i] = s.Now().Add(d)
			}
			for i := 0; i < 32; i++ {
				d := draw()
				timers = append(timers, s.AfterFunc(d, func() {
					order = append(order, firing{id: i, at: s.Now()})
					if rng.Intn(3) == 0 {
						reset(i, draw())
					}
				}))
				due = append(due, s.Now().Add(d))
			}
			for step := 0; step < 1500; step++ {
				i := rng.Intn(len(timers))
				left := max(due[i].Sub(s.Now()), 0)
				switch rng.Intn(8) {
				case 0, 1, 2:
					reset(i, left+draw())
				case 3:
					reset(i, time.Duration(rng.Int63n(int64(left)+1)))
				case 4:
					timers[i].Stop()
				default:
					s.RunFor(draw() / 8)
				}
			}
			s.Run()
			return order
		}
		wheel, heap := run(newWheelSim(epoch)), run(newHeapSim(epoch))
		if len(wheel) != len(heap) {
			t.Fatalf("seed %d: firing count diverged: wheel %d heap %d", seed, len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel %+v heap %+v", seed, i, wheel[i], heap[i])
			}
		}
	}
}

// queued counts the entries held anywhere in the wheel, live or stale.
func (w *wheelSched) queued() int {
	n := len(w.near.es) + len(w.overflow.es)
	for s := range w.l0 {
		n += len(w.l0[s])
	}
	for s := range w.l1 {
		n += len(w.l1[s]) + len(w.l2[s]) + len(w.l3[s])
	}
	return n
}

// TestWheelLaterResetKeepsOneEntry pins the staleness-timer pattern: a
// pending timer pushed later on every packet keeps its one queued entry
// instead of leaving one stale entry per re-arm, and still fires once, at
// its last deadline.
func TestWheelLaterResetKeepsOneEntry(t *testing.T) {
	s := newWheelSim(epoch)
	w := s.sched.(*wheelSched)
	var fired []time.Time
	tm := s.AfterFunc(time.Second, func() { fired = append(fired, s.Now()) })
	// A packet every 50µs re-arms the timer, as Receiver.touch does. The
	// count is taken inside the last packet: the packets keep the cursor
	// near, so no scan for the next live event has swept stale entries.
	packets, queued := 0, 0
	var want time.Time
	var packet func()
	packet = func() {
		tm.Reset(time.Second)
		if packets++; packets < 10000 {
			s.Post(50*time.Microsecond, packet)
			return
		}
		queued, want = w.queued(), s.Now().Add(time.Second)
	}
	s.Post(50*time.Microsecond, packet)
	s.Run()
	if queued > 1 {
		t.Fatalf("%d entries queued after 10000 later Resets of one timer, want ≤ 1", queued)
	}
	if len(fired) != 1 || !fired[0].Equal(want) {
		t.Fatalf("fired at %v, want once at %v", fired, want)
	}
}
