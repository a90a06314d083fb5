package chaos

import "lbrm/internal/wire"

// nackBudget is the §2.2.2 NACK-budget identity (invariant 10): per
// receiver site, the NACK traversals attempted on its tail-up circuit,
// drops included, number exactly the NACKs its secondary and receivers
// counted as sent to the primary. Their sinks sum every incarnation, so
// crashes need no bookkeeping.
type nackBudget struct {
	res   *Result
	nodes []*node
	tail  []uint64 // NACK traversals per site's tail-up
}

func (c *nackBudget) observe(ev *event) {
	if ev.pkt != nil && ev.link == linkTailUp && ev.site >= 0 && ev.pkt.Type == wire.TypeNack {
		c.tail[ev.site]++
	}
}

func (c *nackBudget) final() {
	want := make([]uint64, len(c.tail))
	for _, n := range c.nodes {
		if n.site >= 0 {
			want[n.site] += n.sink.Counter(n.pfx + ".nacks_to_primary").Value()
		}
	}
	for s, got := range c.tail {
		if got != want[s] {
			c.res.violate("nack-budget", "site%d tail-up saw %d NACK traversals but its secondary and receivers account for %d",
				s+1, got, want[s])
		}
	}
}
