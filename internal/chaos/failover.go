package chaos

import (
	"time"

	"lbrm/internal/wire"
)

// failover is invariant 5: once the primary crashes, or a source-segment
// partition isolates it, the first Promote delivered on the wire comes
// within the analytic bound, and its latency is Result.FailoverLatency.
// Detection needs backlog (≤ SendEvery old) aged past FailoverTimeout,
// observed by a jittered check firing at ≤ 1.25×FailoverTimeout
// intervals; then one probe round (FailoverWait) plus source-site RTT
// slack.
type failover struct {
	res                *Result
	bound              time.Duration
	crashAt, promoteAt time.Time
}

func newFailover(res *Result, cfg Config, start time.Time) *failover {
	c := &failover{res: res,
		bound: cfg.FailoverTimeout*5/2 + cfg.FailoverWait + cfg.SendEvery + 250*time.Millisecond}
	for _, f := range res.Schedule {
		if f.Kind == "crash-primary" || f.Kind == "partition-source" {
			c.crashAt = start.Add(f.At)
		}
	}
	return c
}

func (c *failover) observe(ev *event) {
	if ev.pkt != nil && ev.pkt.Type == wire.TypePromote && !ev.tap.Dropped &&
		c.promoteAt.IsZero() && !c.crashAt.IsZero() && !ev.at.Before(c.crashAt) {
		c.promoteAt = ev.at
	}
}

func (c *failover) final() {
	switch lat := c.promoteAt.Sub(c.crashAt); {
	case c.crashAt.IsZero():
	case c.promoteAt.IsZero():
		c.res.violate("failover", "primary crashed but no Promote was ever sent")
	case lat > c.bound:
		c.res.violate("failover", "crash->promote took %v, bound %v", lat, c.bound)
	default:
		c.res.FailoverLatency = lat
	}
}
