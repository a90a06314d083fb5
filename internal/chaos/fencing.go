package chaos

import "time"

// fencing is invariant 9, "at most one un-fenced acting primary at every
// virtual instant", checked every monitorEvery. The original primary is
// excused while a source-segment partition isolates it — it cannot have
// heard the new epoch — and for fenceGrace after the heal, by which time
// a heartbeat carrying the new epoch must have demoted it.
type fencing struct {
	res                  *Result
	f                    *fleet
	start                time.Time
	excuseFrom, excuseTo time.Time
	hit                  bool
}

// fenceGrace is how long after a heal a stale acting primary is still
// excused: one heartbeat interval (HMax 400ms) plus propagation slack must
// suffice for it to hear the new epoch and self-demote.
const fenceGrace = 650 * time.Millisecond

func newFencing(res *Result, f *fleet, start time.Time) *fencing {
	c := &fencing{res: res, f: f, start: start}
	for _, ft := range res.Schedule {
		if ft.Kind == "partition-source" {
			c.excuseFrom = start.Add(ft.At)
			c.excuseTo = start.Add(ft.At + ft.Dur + fenceGrace)
		}
	}
	return c
}

func (c *fencing) observe(ev *event) {
	if ev.kind != evMonitor || c.hit {
		return
	}
	acting := 0
	for _, p := range c.f.acting() {
		if p != c.f.primaries[0] || ev.at.Before(c.excuseFrom) || !ev.at.Before(c.excuseTo) {
			acting++
		}
	}
	if acting > 1 {
		c.hit = true
		c.res.violate("unfenced-primary", "%d un-fenced acting primaries at t=%v", acting, ev.at.Sub(c.start))
	}
}

func (*fencing) final() {}
