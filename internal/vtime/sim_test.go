package vtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowStartsAtConstruction(t *testing.T) {
	s := NewSim(t0)
	if !s.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", s.Now(), t0)
	}
}

func TestSimFiresInDeadlineOrder(t *testing.T) {
	s := NewSim(t0)
	var got []int
	s.AfterFunc(3*time.Second, func() { got = append(got, 3) })
	s.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	s.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
	if !s.Now().Equal(t0.Add(3 * time.Second)) {
		t.Fatalf("Now() after Run = %v, want %v", s.Now(), t0.Add(3*time.Second))
	}
}

func TestSimTieBreaksByScheduleOrder(t *testing.T) {
	s := NewSim(t0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestSimCallbackSeesDeadlineAsNow(t *testing.T) {
	s := NewSim(t0)
	var at time.Time
	s.AfterFunc(5*time.Second, func() { at = s.Now() })
	s.Run()
	if !at.Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("callback Now() = %v, want %v", at, t0.Add(5*time.Second))
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim(t0)
	var fired int
	var rec func()
	rec = func() {
		fired++
		if fired < 5 {
			s.AfterFunc(time.Second, rec)
		}
	}
	s.AfterFunc(time.Second, rec)
	s.Run()
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if !s.Now().Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("Now() = %v, want %v", s.Now(), t0.Add(5*time.Second))
	}
}

func TestSimStopPreventsFire(t *testing.T) {
	s := NewSim(t0)
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if s.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", s.Len())
	}
}

func TestSimStopAfterFireReturnsFalse(t *testing.T) {
	s := NewSim(t0)
	tm := s.AfterFunc(time.Second, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop() after fire = true, want false")
	}
}

func TestSimRunUntilPartialAndClockAdvance(t *testing.T) {
	s := NewSim(t0)
	var got []int
	s.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	s.AfterFunc(10*time.Second, func() { got = append(got, 10) })
	s.RunUntil(t0.Add(5 * time.Second))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if !s.Now().Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("Now() = %v, want %v", s.Now(), t0.Add(5*time.Second))
	}
	if s.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s.Len())
	}
	s.RunFor(5 * time.Second)
	if len(got) != 2 || got[1] != 10 {
		t.Fatalf("got %v, want [1 10]", got)
	}
}

func TestSimRunUntilInclusiveBoundary(t *testing.T) {
	s := NewSim(t0)
	fired := false
	s.AfterFunc(time.Second, func() { fired = true })
	s.RunUntil(t0.Add(time.Second))
	if !fired {
		t.Fatal("event at exactly the RunUntil boundary did not fire")
	}
}

func TestSimNegativeDelayClampsToNow(t *testing.T) {
	s := NewSim(t0)
	var at time.Time
	s.AfterFunc(-time.Hour, func() { at = s.Now() })
	s.Run()
	if !at.Equal(t0) {
		t.Fatalf("fired at %v, want %v", at, t0)
	}
}

func TestSimLenAndExecuted(t *testing.T) {
	s := NewSim(t0)
	for i := 0; i < 4; i++ {
		s.AfterFunc(time.Duration(i+1)*time.Second, func() {})
	}
	if s.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", s.Len())
	}
	s.Step()
	if s.Len() != 3 || s.Executed() != 1 {
		t.Fatalf("Len=%d Executed=%d, want 3,1", s.Len(), s.Executed())
	}
	s.Run()
	if s.Len() != 0 || s.Executed() != 4 {
		t.Fatalf("Len=%d Executed=%d, want 0,4", s.Len(), s.Executed())
	}
}

func TestSimStepReturnsFalseWhenEmpty(t *testing.T) {
	s := NewSim(t0)
	if s.Step() {
		t.Fatal("Step() on empty sim = true")
	}
}

// Property: for any set of random delays, events fire in nondecreasing
// deadline order and the final clock equals the max deadline.
func TestSimOrderingProperty(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		s := NewSim(t0)
		var fireTimes []time.Time
		for _, d := range delaysMS {
			s.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		if len(fireTimes) != len(delaysMS) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool {
			return fireTimes[i].Before(fireTimes[j])
		}) {
			return false
		}
		maxD := time.Duration(0)
		for _, d := range delaysMS {
			if dd := time.Duration(d) * time.Millisecond; dd > maxD {
				maxD = dd
			}
		}
		return s.Now().Equal(t0.Add(maxD))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset prevents exactly that subset from
// firing and Len reflects the stops.
func TestSimStopSubsetProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(t0)
		count := int(n%50) + 1
		fired := make([]bool, count)
		timers := make([]Timer, count)
		for i := 0; i < count; i++ {
			i := i
			timers[i] = s.AfterFunc(time.Duration(rng.Intn(1000))*time.Millisecond,
				func() { fired[i] = true })
		}
		stopped := make([]bool, count)
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				stopped[i] = timers[i].Stop()
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			if fired[i] == stopped[i] {
				return false // stopped XOR fired must hold
			}
		}
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	c := Real{}
	ch := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer did not fire")
	}
	if d := time.Since(c.Now()); d > time.Minute || d < -time.Minute {
		t.Fatalf("Real.Now() far from time.Now(): %v", d)
	}
}

func TestRealClockStop(t *testing.T) {
	c := Real{}
	tm := c.AfterFunc(time.Hour, func() { t.Error("stopped real timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending real timer")
	}
}

func TestSimReentrantRunPanics(t *testing.T) {
	s := NewSim(t0)
	s.AfterFunc(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		s.Run()
	})
	s.Run()
}

func TestSimTimerReset(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	t.Run("pending reschedules", func(t *testing.T) {
		s := NewSim(start)
		var fired []time.Time
		tm := s.AfterFunc(time.Second, func() { fired = append(fired, s.Now()) })
		if !tm.Reset(3 * time.Second) {
			t.Fatal("Reset on pending timer reported not-pending")
		}
		s.Run()
		if len(fired) != 1 || !fired[0].Equal(start.Add(3*time.Second)) {
			t.Fatalf("fired = %v, want one firing at +3s", fired)
		}
	})
	t.Run("stopped re-arms", func(t *testing.T) {
		s := NewSim(start)
		n := 0
		tm := s.AfterFunc(time.Second, func() { n++ })
		tm.Stop()
		if tm.Reset(2 * time.Second) {
			t.Fatal("Reset on stopped timer reported pending")
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d, want 1", s.Len())
		}
		s.Run()
		if n != 1 {
			t.Fatalf("fired %d times, want 1", n)
		}
	})
	t.Run("fired re-arms from callback", func(t *testing.T) {
		// The hot heartbeat pattern: the callback Resets its own timer.
		s := NewSim(start)
		n := 0
		var tm Timer
		tm = s.AfterFunc(time.Second, func() {
			n++
			if n < 3 {
				tm.Reset(time.Second)
			}
		})
		s.Run()
		if n != 3 {
			t.Fatalf("fired %d times, want 3", n)
		}
		if !s.Now().Equal(start.Add(3 * time.Second)) {
			t.Fatalf("Now = %v, want +3s", s.Now())
		}
	})
	t.Run("reset then stop", func(t *testing.T) {
		s := NewSim(start)
		n := 0
		tm := s.AfterFunc(time.Second, func() { n++ })
		tm.Reset(2 * time.Second)
		if !tm.Stop() {
			t.Fatal("Stop after Reset reported not-pending")
		}
		s.Run()
		if n != 0 {
			t.Fatalf("stopped timer fired %d times", n)
		}
		if s.Len() != 0 {
			t.Fatalf("Len = %d, want 0", s.Len())
		}
	})
	t.Run("ordering against equal deadlines", func(t *testing.T) {
		// A Reset timer schedules after already-pending events at the same
		// instant (fresh scheduling sequence).
		s := NewSim(start)
		var order []string
		s.AfterFunc(time.Second, func() { order = append(order, "a") })
		tm := s.AfterFunc(500*time.Millisecond, func() { order = append(order, "b") })
		tm.Reset(time.Second)
		s.Run()
		if len(order) != 2 || order[0] != "a" || order[1] != "b" {
			t.Fatalf("order = %v, want [a b]", order)
		}
	})
}

func TestRealTimerReset(t *testing.T) {
	done := make(chan struct{}, 1)
	tm := Real{}.AfterFunc(time.Hour, func() { done <- struct{}{} })
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset on pending real timer reported not-pending")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reset real timer never fired")
	}
	// Re-arm after firing.
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset on fired real timer reported pending")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed real timer never fired")
	}
}

// TestAfterFuncUnless checks the fire-time guard: a guarded event fires
// and counts as executed either way, but its callback runs only while the
// guard is false — also across a Reset.
func TestAfterFuncUnless(t *testing.T) {
	for _, heap := range []bool{false, true} {
		s := newWheelSim(epoch)
		if heap {
			s = newHeapSim(epoch)
		}
		var dead bool
		calls := 0
		tm := s.AfterFuncUnless(time.Millisecond, &dead, func() { calls++ })
		s.Run()
		dead = true
		tm.Reset(time.Millisecond)
		s.Run()
		if calls != 1 || s.Executed() != 2 || s.Len() != 0 {
			t.Fatalf("heap=%v: %d calls, %d executed, %d pending; want 1, 2, 0", heap, calls, s.Executed(), s.Len())
		}
	}
}
