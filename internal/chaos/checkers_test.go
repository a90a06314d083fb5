package chaos

import (
	"slices"
	"testing"

	"lbrm"
	"lbrm/internal/netsim"
	"lbrm/internal/obs"
	"lbrm/internal/wire"
)

// These tests feed synthetic events straight to single checkers: each
// must trip on a crafted violation and stay quiet on its legal twin.

// traversal is one delivered traversal of p, sent by node from, over a
// link of role r.
func traversal(from int, r role, p wire.Packet) *event {
	return &event{kind: evTap, role: r, tap: lbrm.TapEvent{From: netsim.NodeID(from), Size: 40}, pkt: &p}
}

// crashOf is the end of node n's incarnation.
func crashOf(n *node) *event { return &event{kind: evCrash, role: role{node: n}} }

// wantViolations requires res to hold exactly the named violations, in
// order.
func wantViolations(t *testing.T, res *Result, want ...string) {
	t.Helper()
	var got []string
	for _, v := range res.Violations {
		got = append(got, v.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("violations %v, want %v", got, want)
	}
}

func TestAckMonotonicityChecker(t *testing.T) {
	ack := func(seq uint64) *event {
		return traversal(3, role{}, wire.Packet{Type: wire.TypeSourceAck, Source: 1, Group: 1, Seq: seq})
	}
	t.Run("regression trips", func(t *testing.T) {
		res := &Result{}
		c := &acks{res: res, last: make(map[ackKey]uint64)}
		c.observe(ack(5))
		c.observe(ack(5))
		wantViolations(t, res)
		c.observe(ack(4))
		wantViolations(t, res, "ack-monotonicity")
	})
	t.Run("new incarnation restarts", func(t *testing.T) {
		res := &Result{}
		c := &acks{res: res, last: make(map[ackKey]uint64)}
		c.observe(ack(5))
		c.observe(crashOf(&node{id: 3}))
		c.observe(ack(1))
		// A lost traversal released nothing, so it cannot regress either.
		dropped := ack(0)
		dropped.tap.Dropped = true
		c.observe(dropped)
		wantViolations(t, res)
	})
}

func TestEpochMonotonicityChecker(t *testing.T) {
	heartbeat := func(epoch uint32) *event {
		return traversal(7, role{}, wire.Packet{Type: wire.TypeHeartbeat, PrimaryEpoch: epoch})
	}
	redirect := func(epoch uint32) *event {
		return traversal(7, role{}, wire.Packet{Type: wire.TypePrimaryRedirect, Epoch: epoch})
	}
	t.Run("regression trips once", func(t *testing.T) {
		res := &Result{}
		c := &epochs{res: res, f: &fleet{}, last: make(map[int]uint32)}
		c.observe(heartbeat(2))
		c.observe(redirect(2))
		wantViolations(t, res)
		c.observe(redirect(1))
		c.observe(heartbeat(1))
		wantViolations(t, res, "epoch-monotonicity")
	})
	t.Run("new incarnation restarts", func(t *testing.T) {
		res := &Result{}
		c := &epochs{res: res, f: &fleet{}, last: make(map[int]uint32)}
		c.observe(heartbeat(3))
		c.observe(crashOf(&node{id: 7}))
		c.observe(heartbeat(1))
		// Data carries the acker epoch, not a primary epoch.
		c.observe(traversal(7, role{}, wire.Packet{Type: wire.TypeData, Epoch: 0}))
		wantViolations(t, res)
	})
}

func TestTierSkipChecker(t *testing.T) {
	pri := &node{id: 2, name: "primary", pfx: "primary", site: -1, idx: -1}
	other := &node{id: 5, name: "site1/rcv0", pfx: "recv", site: 0, idx: 0}
	nack := func(n *node, tier int) *event {
		p := wire.Packet{Type: wire.TypeNack}
		p.SetTier(tier)
		return traversal(9, role{link: linkHostDown, node: n}, p)
	}
	res := &Result{}
	c := newTierSkip(res, pri)
	c.observe(nack(pri, treeDepth))
	c.observe(nack(other, 0)) // not the primary's host
	c.final()
	wantViolations(t, res)
	c.observe(nack(pri, 1))
	c.observe(nack(pri, 0))
	wantViolations(t, res, "tier-skip")

	// A cascade run whose receivers never reached the primary.
	res = &Result{Schedule: []Fault{{Kind: "crash-secondary"}}}
	c = newTierSkip(res, pri)
	c.observe(nack(other, 0))
	c.final()
	wantViolations(t, res, "tier-walk")
}

func TestNackBudgetChecker(t *testing.T) {
	sec := &node{name: "site1/secondary", pfx: "secondary", sink: obs.NewSink(), site: 0, idx: -1}
	rcv := &node{name: "site1/rcv0", pfx: "recv", sink: obs.NewSink(), site: 0, idx: 0}
	res := &Result{}
	c := &nackBudget{res: res, nodes: []*node{sec, rcv}, tail: make([]uint64, 1)}
	tailUp := role{link: linkTailUp, site: 0}
	c.observe(traversal(1, tailUp, wire.Packet{Type: wire.TypeNack}))
	lost := traversal(1, tailUp, wire.Packet{Type: wire.TypeNack})
	lost.tap.Dropped = true // a NACK lost in a partition still spent the attempt
	c.observe(lost)
	c.observe(traversal(1, tailUp, wire.Packet{Type: wire.TypeData}))
	c.observe(traversal(1, role{link: linkTailUp, site: -1}, wire.Packet{Type: wire.TypeNack}))
	sec.sink.Counter("secondary.nacks_to_primary").Add(1)
	c.final()
	wantViolations(t, res, "nack-budget")

	res.Violations = nil
	rcv.sink.Counter("recv.nacks_to_primary").Add(1)
	c.final()
	wantViolations(t, res)
}

func TestMetricsReconcileChecker(t *testing.T) {
	n := &node{name: "sender", pfx: "sender", sink: obs.NewSink(), site: -1, idx: -1}
	res := &Result{}
	c := newTxLedger(res, []*node{n})
	c.observe(traversal(1, role{link: linkHostUp, node: n}, wire.Packet{Type: wire.TypeData}))
	c.observe(traversal(1, role{link: linkHostDown, node: n}, wire.Packet{Type: wire.TypeData}))
	if got := res.NodeTx["sender"][wire.ClassData]; got != (TrafficCounters{Packets: 1, Bytes: 40}) {
		t.Fatalf("NodeTx sender data = %+v, want 1 pkt / 40 B", got)
	}
	c.final()
	wantViolations(t, res, "metrics-reconcile")

	// Packet counts agree, byte counts do not.
	res.Violations = nil
	n.sink.Counter("sender.tx.data.pkts").Add(1)
	n.sink.Counter("sender.tx.data.bytes").Add(39)
	c.final()
	wantViolations(t, res, "metrics-reconcile")

	res.Violations = nil
	n.sink.Counter("sender.tx.data.bytes").Add(1)
	c.final()
	wantViolations(t, res)
}
