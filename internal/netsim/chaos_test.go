package netsim

import (
	"fmt"
	"testing"
	"time"

	"lbrm/internal/transport"
	"lbrm/internal/wire"
)

// timerHandler schedules one timer at Start and counts its firings; used to
// check that a crash suppresses the dead incarnation's timers.
type timerHandler struct {
	delay time.Duration
	fired int
	env   transport.Env
}

func (h *timerHandler) Start(env transport.Env) {
	h.env = env
	env.AfterFunc(h.delay, func() { h.fired++ })
}

func (h *timerHandler) Recv(transport.Addr, []byte) {}

func TestCrashDropsInFlightPackets(t *testing.T) {
	n, s1, s2 := twoSiteNet(t)
	a := s1.NewHost("a", &recorder{})
	rb := &recorder{}
	b := s2.NewHost("b", rb)
	n.Start()
	a.Env().Send(b.Addr(), []byte("doomed")) // 40ms one-way
	n.RunFor(10 * time.Millisecond)
	b.Crash()
	n.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("crashed node received %d packets", len(rb.got))
	}
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if b.Env() != nil {
		t.Fatal("Env() non-nil while crashed")
	}

	// Packets sent while the node is down also vanish.
	a.Env().Send(b.Addr(), []byte("into the void"))
	n.RunUntilIdle()

	// A restarted incarnation receives new traffic but nothing older.
	rb2 := &recorder{}
	b.Restart(rb2)
	a.Env().Send(b.Addr(), []byte("fresh"))
	n.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("old handler revived: %+v", rb.got)
	}
	if len(rb2.got) != 1 || rb2.got[0].data != "fresh" {
		t.Fatalf("restarted node got %+v, want exactly \"fresh\"", rb2.got)
	}
}

func TestCrashRestartDropsPacketsInFlightAcrossReboot(t *testing.T) {
	// A packet in flight when the node crashes must not be delivered to the
	// restarted incarnation even if it "arrives" after the restart.
	n, s1, s2 := twoSiteNet(t)
	a := s1.NewHost("a", &recorder{})
	rb := &recorder{}
	b := s2.NewHost("b", rb)
	n.Start()
	a.Env().Send(b.Addr(), []byte("stale")) // arrives at t=40ms
	n.RunFor(5 * time.Millisecond)
	b.Crash()
	rb2 := &recorder{}
	b.Restart(rb2) // instant reboot, well before the packet lands
	n.RunUntilIdle()
	if len(rb.got)+len(rb2.got) != 0 {
		t.Fatalf("pre-crash packet crossed the reboot: old=%d new=%d", len(rb.got), len(rb2.got))
	}
}

func TestCrashSuppressesDeadTimersAndSends(t *testing.T) {
	n, s1, _ := twoSiteNet(t)
	h := &timerHandler{delay: 50 * time.Millisecond}
	node := s1.NewHost("n", h)
	n.Start()
	env := node.Env() // capture the live env before the crash
	n.RunFor(10 * time.Millisecond)
	node.Crash()
	n.RunUntilIdle()
	if h.fired != 0 {
		t.Fatalf("dead incarnation's timer fired %d times", h.fired)
	}
	// Sends and joins from the dead env must be inert no-ops.
	if err := env.Send(node.Addr(), []byte("ghost")); err != nil {
		t.Fatalf("dead send errored: %v", err)
	}
	if err := env.Join(wire.GroupID(1)); err != nil {
		t.Fatalf("dead join errored: %v", err)
	}
	if n.Members(wire.GroupID(1)) != 0 {
		t.Fatal("dead env joined a group")
	}

	h2 := &timerHandler{delay: 20 * time.Millisecond}
	node.Restart(h2)
	n.RunUntilIdle()
	if h2.fired != 1 {
		t.Fatalf("restarted incarnation's timer fired %d times, want 1", h2.fired)
	}
	if h.fired != 0 {
		t.Fatal("old incarnation's timer fired after restart")
	}
}

func TestCrashForgetsGroupMemberships(t *testing.T) {
	const g = wire.GroupID(4)
	n, s1, s2 := twoSiteNet(t)
	src := s1.NewHost("src", &recorder{})
	r := &recorder{join: []wire.GroupID{g}}
	m := s2.NewHost("m", r)
	n.Start()
	if n.Members(g) != 1 {
		t.Fatalf("Members = %d, want 1", n.Members(g))
	}
	m.Crash()
	if n.Members(g) != 0 {
		t.Fatalf("Members = %d after crash, want 0", n.Members(g))
	}
	src.Env().Multicast(g, transport.TTLGlobal, []byte("lost"))
	n.RunUntilIdle()

	// A rebooted process must re-join to hear the group again.
	r2 := &recorder{join: []wire.GroupID{g}}
	m.Restart(r2)
	src.Env().Multicast(g, transport.TTLGlobal, []byte("heard"))
	n.RunUntilIdle()
	if len(r.got) != 0 {
		t.Fatalf("dead incarnation got %+v", r.got)
	}
	if len(r2.got) != 1 || r2.got[0].data != "heard" {
		t.Fatalf("rebooted member got %+v, want exactly \"heard\"", r2.got)
	}
}

func TestRestartOfLiveNodePanics(t *testing.T) {
	n, s1, _ := twoSiteNet(t)
	node := s1.NewHost("n", &recorder{})
	n.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("Restart of a live node did not panic")
		}
	}()
	node.Restart(&recorder{})
}

func TestDuplicateModelDeliversTwice(t *testing.T) {
	n, s1, s2 := twoSiteNet(t)
	a := s1.NewHost("a", &recorder{})
	rb := &recorder{}
	b := s2.NewHost("b", rb)
	c := s1.NewHost("c", &recorder{})
	s2.TailDown().SetLoss(Duplicate{P: 1, Lag: 3 * time.Millisecond})
	n.Start()
	a.Env().Send(b.Addr(), []byte("x"))
	// Between the two arrivals, the first copy's buffer is back in the
	// pool and this send takes it: the second copy must own its own.
	n.Clock().AfterFunc(41*time.Millisecond, func() { a.Env().Send(c.Addr(), []byte("y")) })
	n.RunUntilIdle()
	if len(rb.got) != 2 {
		t.Fatalf("received %d copies, want 2", len(rb.got))
	}
	if rb.got[0].data != "x" || rb.got[1].data != "x" {
		t.Fatalf("copies read %q and %q, want \"x\" twice", rb.got[0].data, rb.got[1].data)
	}
	if gap := rb.got[1].at.Sub(rb.got[0].at); gap != 3*time.Millisecond {
		t.Fatalf("copies %v apart, want 3ms", gap)
	}
	ctr := s2.TailDown().Counters()
	if ctr.Dups != 1 || ctr.Packets != 2 {
		t.Fatalf("counters = %+v, want 1 dup of 2 traversals", ctr)
	}
}

func TestDuplicateModelOnMulticast(t *testing.T) {
	const g = wire.GroupID(6)
	n, s1, s2 := twoSiteNet(t)
	src := s1.NewHost("src", &recorder{})
	r := &recorder{join: []wire.GroupID{g}}
	s2.NewHost("m", r)
	s2.TailDown().SetLoss(Duplicate{P: 1, Lag: time.Millisecond})
	n.Start()
	src.Env().Multicast(g, transport.TTLGlobal, []byte("x"))
	n.RunUntilIdle()
	if len(r.got) != 2 {
		t.Fatalf("member received %d copies, want 2", len(r.got))
	}
}

func TestReorderModelInvertsArrivals(t *testing.T) {
	n, s1, s2 := twoSiteNet(t)
	a := s1.NewHost("a", &recorder{})
	rb := &recorder{}
	b := s2.NewHost("b", rb)
	base := 40 * time.Millisecond
	maxExtra := 20 * time.Millisecond
	s2.TailDown().SetLoss(Reorder{P: 0.5, MaxDelay: maxExtra})
	n.Start()
	const total = 200
	sentAt := make(map[string]time.Time, total)
	for i := 0; i < total; i++ {
		data := fmt.Sprintf("p%03d", i)
		sentAt[data] = n.Clock().Now()
		a.Env().Send(b.Addr(), []byte(data))
		n.RunFor(time.Millisecond)
	}
	n.RunUntilIdle()
	if len(rb.got) != total {
		t.Fatalf("received %d, want %d (Reorder must never drop)", len(rb.got), total)
	}
	inversions := 0
	for i := 1; i < len(rb.got); i++ {
		if rb.got[i].data < rb.got[i-1].data {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no arrival inversions with P=0.5 over 200 packets spaced 1ms")
	}
	for _, rec := range rb.got {
		d := rec.at.Sub(sentAt[rec.data])
		if d < base || d > base+maxExtra {
			t.Fatalf("latency %v outside [%v, %v]", d, base, base+maxExtra)
		}
	}
}

func TestComposeCombinesModels(t *testing.T) {
	n, s1, s2 := twoSiteNet(t)
	a := s1.NewHost("a", &recorder{})
	rb := &recorder{}
	b := s2.NewHost("b", rb)
	s2.TailDown().SetLoss(Compose(
		Bernoulli{P: 0.3},
		Reorder{P: 0.5, MaxDelay: 10 * time.Millisecond},
		Duplicate{P: 0.2, Lag: time.Millisecond},
		nil, // nils are skipped
	))
	n.Start()
	const total = 1000
	for i := 0; i < total; i++ {
		a.Env().Send(b.Addr(), []byte("x"))
		n.RunFor(time.Millisecond)
	}
	n.RunUntilIdle()
	c := s2.TailDown().Counters()
	if c.Drops == 0 {
		t.Fatal("composed chain never dropped")
	}
	if c.Dups == 0 {
		t.Fatal("composed chain never duplicated")
	}
	// Survivors ± duplicates must reconcile exactly with deliveries.
	want := total - int(c.Drops) + int(c.Dups)
	if len(rb.got) != want {
		t.Fatalf("received %d, want %d (= %d sent - %d drops + %d dups)",
			len(rb.got), want, total, c.Drops, c.Dups)
	}
}

// TestChaosModelsDeterministic: the new models draw from the network rng in
// a fixed order, so identical seeds must reproduce identical traces even
// with drops, duplicates, reordering and a mid-run crash/restart.
func TestChaosModelsDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		const g = wire.GroupID(2)
		n := New(seed)
		s1 := n.NewSite(SiteParams{Name: "s1"})
		s2 := n.NewSite(SiteParams{Name: "s2"})
		src := s1.NewHost("src", &recorder{})
		r1 := &recorder{join: []wire.GroupID{g}}
		r2 := &recorder{join: []wire.GroupID{g}}
		s1.NewHost("r1", r1)
		m2 := s2.NewHost("r2", r2)
		s2.TailDown().SetLoss(Compose(
			Bernoulli{P: 0.2},
			Reorder{P: 0.3, MaxDelay: 5 * time.Millisecond},
			Duplicate{P: 0.1, Lag: time.Millisecond},
		))
		n.Start()
		var r2b *recorder
		for i := 0; i < 100; i++ {
			if i == 40 {
				m2.Crash()
			}
			if i == 60 {
				r2b = &recorder{join: []wire.GroupID{g}}
				m2.Restart(r2b)
			}
			src.Env().Multicast(g, transport.TTLGlobal, []byte{byte(i)})
			n.RunFor(2 * time.Millisecond)
		}
		n.RunUntilIdle()
		var trace []string
		for i, r := range []*recorder{r1, r2, r2b} {
			for _, rec := range r.got {
				trace = append(trace, fmt.Sprintf("%d:%x@%d", i, rec.data, rec.at.UnixNano()))
			}
		}
		return trace
	}
	a, b := run(17), run(17)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
