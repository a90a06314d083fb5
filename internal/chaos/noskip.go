package chaos

// noSkip is "no acked loss" for the quorum (DESIGN.md §12) and hierarchy
// (§13) schedules, reported under the schedule's name: every receiver
// delivered every sequence number sent (<name>-no-skip), and none ever
// abandoned a recovery range (<name>-abandoned). These schedules never
// crash receivers, so the OnData ledger is complete.
type noSkip struct {
	res       *Result
	f         *fleet
	name      string
	delivered map[*node]map[uint64]bool
}

func newNoSkip(res *Result, f *fleet, name string) *noSkip {
	return &noSkip{res: res, f: f, name: name, delivered: make(map[*node]map[uint64]bool)}
}

func (c *noSkip) observe(ev *event) {
	if ev.kind != evDeliver {
		return
	}
	m := c.delivered[ev.node]
	if m == nil {
		m = make(map[uint64]bool)
		c.delivered[ev.node] = m
	}
	m[ev.data.Seq] = true
}

func (c *noSkip) final() {
	var abandoned uint64
	for _, n := range c.f.rcvNodes {
		var missing []uint64
		for seq := uint64(1); seq <= c.res.LastSeq && len(missing) < 8; seq++ {
			if !c.delivered[n][seq] {
				missing = append(missing, seq)
			}
		}
		if len(missing) > 0 {
			c.res.violate(c.name+"-no-skip", "%s never delivered seqs %v (lastSeq %d)", n.name, missing, c.res.LastSeq)
		}
		abandoned += n.sink.Counter("recv.ranges_abandoned").Value()
	}
	if abandoned > 0 {
		c.res.violate(c.name+"-abandoned", "%d recovery ranges abandoned across receivers", abandoned)
	}
}
