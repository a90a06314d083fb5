package chaos

import "lbrm/internal/wire"

// txLedger is the metrics-vs-wire cross-check (DESIGN.md §9). Its ledger,
// Result.NodeTx, counts each node's attempted host up-link traversals per
// traffic class, drops included; it must equal exactly what the node's
// handlers counted at the send site, over every incarnation
// (metrics-reconcile).
type txLedger struct {
	res   *Result
	nodes []*node
	tx    [][]TrafficCounters // [node.index][wire.TrafficClass], shared with Result.NodeTx
}

func newTxLedger(res *Result, nodes []*node) *txLedger {
	c := &txLedger{res: res, nodes: nodes}
	res.NodeTx = make(map[string][]TrafficCounters, len(nodes))
	for _, n := range nodes {
		row := make([]TrafficCounters, wire.NumTrafficClasses)
		c.tx = append(c.tx, row)
		res.NodeTx[n.name] = row
	}
	return c
}

func (c *txLedger) observe(ev *event) {
	if ev.pkt != nil && ev.link == linkHostUp {
		c.tx[ev.node.index][wire.ClassOf(ev.pkt.Type)].add(ev.tap.Size)
	}
}

func (c *txLedger) final() {
	for _, n := range c.nodes {
		snap := n.sink.Registry().Snapshot()
		for cls := wire.TrafficClass(0); cls < wire.NumTrafficClasses; cls++ {
			base := n.pfx + ".tx." + cls.String()
			wantP, wantB := snap.Counters[base+".pkts"], snap.Counters[base+".bytes"]
			if got := c.tx[n.index][cls]; got.Packets != wantP || got.Bytes != wantB {
				c.res.violate("metrics-reconcile", "%s %s: tap saw %d pkts / %d B on the up-link, metrics report %d pkts / %d B",
					n.name, cls, got.Packets, got.Bytes, wantP, wantB)
			}
		}
	}
}
