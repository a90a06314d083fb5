package chaos

import (
	"time"

	"lbrm/internal/wire"
)

// tailTraffic keeps the recovery-bandwidth ledgers: every attempted
// traversal of a tail circuit, drops included, by wire.ClassOf class into
// Result.TailTraffic, and those inside a fault window into
// TailTrafficFault.
type tailTraffic struct {
	res   *Result
	start time.Time
}

func (c *tailTraffic) observe(ev *event) {
	if ev.pkt == nil || (ev.link != linkTailUp && ev.link != linkTailDown) {
		return
	}
	cls := wire.ClassOf(ev.pkt.Type).String()
	bump(c.res.TailTraffic, cls, ev.tap.Size)
	for _, f := range c.res.Schedule {
		if at := ev.at.Sub(c.start); at >= f.At && at < f.At+f.Dur {
			bump(c.res.TailTrafficFault, cls, ev.tap.Size)
			break
		}
	}
}

func (*tailTraffic) final() {}

// bump adds one attempted traversal to m[cls].
func bump(m map[string]TrafficCounters, cls string, size int) {
	t := m[cls]
	t.add(size)
	m[cls] = t
}
