package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// owner stands in for a protocol component: a stats struct whose tagged
// words are registry counters, next to a Stats()-only word.
type owner struct {
	stats struct {
		Hits   uint64 `obs:"t.hits"`
		Misses uint64 `obs:"t.misses"`
		Local  uint64
	}
	pad [1 << 16]byte // big enough that the collector frees it on its own
}

func TestAttachStatsSumsWordsAndFoldsOnDetach(t *testing.T) {
	reg := NewRegistry()
	hits := reg.Counter("t.hits")
	hits.Add(5) // a counter's own word keeps counting beside attached ones
	gen := reg.Gen()

	a, b := &owner{}, &owner{}
	reg.AttachStats(&a.stats)
	reg.AttachStats(&b.stats)
	if reg.Gen() != gen+1 {
		t.Fatalf("gen moved by %d, want 1 (t.misses is the only new name)", reg.Gen()-gen)
	}
	atomic.AddUint64(&a.stats.Hits, 2)
	atomic.AddUint64(&b.stats.Hits, 3)
	atomic.AddUint64(&b.stats.Misses, 7)
	b.stats.Local = 99
	if got := hits.Value(); got != 10 {
		t.Fatalf("t.hits = %d, want 5 own + 2 + 3", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["t.hits"] != 10 || snap.Counters["t.misses"] != 7 || len(snap.Counters) != 2 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}

	reg.DetachStats(&a.stats)
	reg.DetachStats(&a.stats) // a second Stop is harmless
	if got := hits.Value(); got != 10 {
		t.Fatalf("t.hits = %d after detach, want the folded total 10", got)
	}
	atomic.AddUint64(&a.stats.Hits, 100) // after Stop: Stats() only
	atomic.AddUint64(&b.stats.Hits, 1)
	if got := hits.Value(); got != 11 {
		t.Fatalf("t.hits = %d, want 11", got)
	}

	var nilReg *Registry
	nilReg.AttachStats(&a.stats) // nil registry: nothing to do, no panic
	nilReg.DetachStats(&a.stats)
}

// TestDetachStatsReleasesTheOwner: a stopped incarnation must not stay
// reachable through the registry its successor keeps using.
func TestDetachStatsReleasesTheOwner(t *testing.T) {
	reg := NewRegistry()
	freed := make(chan struct{})
	func() {
		o := &owner{}
		runtime.SetFinalizer(o, func(*owner) { close(freed) })
		reg.AttachStats(&o.stats)
		atomic.AddUint64(&o.stats.Hits, 4)
		reg.DetachStats(&o.stats)
	}()
	successor := &owner{}
	reg.AttachStats(&successor.stats)
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if got := reg.Counter("t.hits").Value(); got != 4 {
				t.Fatalf("t.hits = %d after the owner was collected, want 4", got)
			}
			runtime.KeepAlive(successor)
			return
		case <-deadline:
			t.Fatal("detached stats owner still reachable after 10s of GC cycles")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCounterMonotonicAcrossAttachDetach: readers on other goroutines must
// never see a counter step backwards while owners come, count and go — the
// fold and the pointer drop are one atomic publication.
func TestCounterMonotonicAcrossAttachDetach(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t.hits")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, v := range []uint64{c.Value(), reg.Snapshot().Counters["t.hits"]} {
					if v < last {
						t.Errorf("t.hits went backwards: %d after %d", v, last)
						return
					}
					last = v
				}
			}
		}()
	}
	const rounds, perRound = 300, 50
	keep := &owner{}
	reg.AttachStats(&keep.stats)
	for i := 0; i < rounds; i++ {
		o := &owner{}
		reg.AttachStats(&o.stats)
		for j := 0; j < perRound; j++ {
			atomic.AddUint64(&o.stats.Hits, 1)
			atomic.AddUint64(&keep.stats.Hits, 1)
		}
		reg.DetachStats(&o.stats)
	}
	close(done)
	wg.Wait()
	if got := c.Value(); got != 2*rounds*perRound {
		t.Fatalf("t.hits = %d, want %d", got, 2*rounds*perRound)
	}
}
