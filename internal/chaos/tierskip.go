package chaos

import "lbrm/internal/wire"

// tierSkip checks escalation through the logger tree (DESIGN.md §13) at
// the primary's host down-link. Every NACK arriving there, drops
// included, must be stamped with the primary's global tier, treeDepth: a
// lower stamp means a live tier was skipped on the way up (tier-skip). On
// a cascade schedule, where a site's secondary and its regional die
// together, such NACKs must exist at all: the receivers walked both dead
// tiers to the primary (tier-walk).
type tierSkip struct {
	res     *Result
	pri     *node
	cascade bool
	nacks   uint64
	hit     bool
}

func newTierSkip(res *Result, pri *node) *tierSkip {
	c := &tierSkip{res: res, pri: pri}
	for _, f := range res.Schedule {
		c.cascade = c.cascade || f.Kind == "crash-secondary"
	}
	return c
}

func (c *tierSkip) observe(ev *event) {
	if ev.pkt == nil || ev.link != linkHostDown || ev.node != c.pri || ev.pkt.Type != wire.TypeNack {
		return
	}
	c.nacks++
	if tier := ev.pkt.Tier(); tier != treeDepth && !c.hit {
		c.hit = true
		c.res.violate("tier-skip",
			"NACK at the primary stamped tier %d, want %d (escalation skipped a tier)", tier, treeDepth)
	}
}

func (c *tierSkip) final() {
	if c.cascade && c.nacks == 0 {
		c.res.violate("tier-walk", "cascade run, but no NACK ever reached the primary's host")
	}
}
