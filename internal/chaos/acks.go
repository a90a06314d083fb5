package chaos

import "lbrm/internal/wire"

// acks is ack monotonicity (invariant 4): per node incarnation, ack type
// and stream, the cumulative source acks and replica sync acks delivered
// on the wire never regress. A crash ends the incarnation; the next one
// legally starts over.
type acks struct {
	res  *Result
	last map[ackKey]uint64
}

// ackKey identifies one acknowledgement stream.
type ackKey struct {
	node int
	typ  wire.Type
	src  wire.SourceID
	grp  wire.GroupID
}

func (c *acks) observe(ev *event) {
	if ev.kind == evCrash {
		for k := range c.last {
			if k.node == ev.node.id {
				delete(c.last, k)
			}
		}
		return
	}
	p := ev.pkt
	if p == nil || ev.tap.Dropped || (p.Type != wire.TypeSourceAck && p.Type != wire.TypeLogSyncAck) {
		return
	}
	k := ackKey{node: int(ev.tap.From), typ: p.Type, src: p.Source, grp: p.Group}
	if last, ok := c.last[k]; ok && p.Seq < last {
		c.res.violate("ack-monotonicity", "node %d %s regressed %d -> %d", ev.tap.From, p.Type, last, p.Seq)
	} else {
		c.last[k] = p.Seq
	}
}

func (*acks) final() {}
