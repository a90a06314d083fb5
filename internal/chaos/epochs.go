package chaos

import "lbrm/internal/wire"

// epochs watches the primary epoch each node incarnation stamps on its
// delivered authority-bearing traffic. Two invariants read that watermark:
//
//   - epoch-monotonicity (invariant 8, live): within one incarnation it
//     never regresses; a crash ends the incarnation;
//   - epoch-gauge (DESIGN.md §9, final): components set their epoch gauge
//     before sending anything stamped with that epoch, so no node's gauge
//     ends below its watermark, and the sender, which never crashes,
//     agrees with its own PrimaryEpoch exactly.
type epochs struct {
	res  *Result
	f    *fleet
	last map[int]uint32 // by node ID
	hit  bool
}

func (c *epochs) observe(ev *event) {
	if ev.kind == evCrash {
		delete(c.last, ev.node.id)
		return
	}
	p := ev.pkt
	if p == nil || ev.tap.Dropped {
		return
	}
	var pe uint32
	switch p.Type {
	case wire.TypeHeartbeat:
		pe = p.PrimaryEpoch
	case wire.TypeSourceAck, wire.TypeLogSync, wire.TypeLogSyncAck,
		wire.TypePromote, wire.TypePrimaryRedirect, wire.TypeLogStateReply,
		wire.TypeQuorumAck, wire.TypeRingConfig:
		pe = p.Epoch
	default:
		return
	}
	id := int(ev.tap.From)
	if last, ok := c.last[id]; ok && pe < last {
		if !c.hit {
			c.hit = true
			c.res.violate("epoch-monotonicity", "node %d %s epoch regressed %d -> %d", id, p.Type, last, pe)
		}
	} else {
		c.last[id] = pe
	}
}

// epochGauge names each metric prefix's epoch gauge.
var epochGauge = map[string]string{
	"sender":    "sender.primary_epoch",
	"primary":   "primary.epoch",
	"secondary": "secondary.primary_epoch",
	"recv":      "recv.primary_epoch",
}

func (c *epochs) final() {
	for _, n := range c.f.nodes {
		last, seen := c.last[n.id]
		if !seen {
			continue
		}
		if g := n.sink.Gauge(epochGauge[n.pfx]).Value(); g < int64(last) {
			c.res.violate("epoch-gauge", "%s epoch gauge %d below tap watermark %d", n.name, g, last)
		}
	}
	s := c.f.tb.Sender
	if g := c.f.tb.SenderCfg.Obs.Gauge("sender.primary_epoch").Value(); g != int64(s.PrimaryEpoch()) {
		c.res.violate("epoch-gauge", "sender epoch gauge %d != PrimaryEpoch() %d", g, s.PrimaryEpoch())
	}
}
