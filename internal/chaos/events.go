package chaos

import (
	"time"

	"lbrm"
	"lbrm/internal/obs"
	"lbrm/internal/wire"
)

// checker is one invariant (or one Result ledger) of a chaos run. It keeps
// its own state, folds in the events it cares about as the run produces
// them, and gives its verdict in final, once the run has converged and
// before shutdown. Violations go straight into the shared Result, so live
// ones stay in the order they were found.
type checker interface {
	observe(ev *event)
	final()
}

// evKind says what one event records.
type evKind uint8

const (
	evTap     evKind = iota // one link traversal: tap, pkt and the link's role
	evCrash                 // node died with total state loss: its incarnation ended
	evDeliver               // receiver node's OnData fired with data
	evMonitor               // the un-fenced-primary cadence ticked
	evSample                // the fleet timeline's sampling cadence ticked
)

// linkKind is a link's place in the deployment.
type linkKind uint8

const (
	linkOther    linkKind = iota // backbone and region links
	linkTailUp                   // a site's tail circuit, upward
	linkTailDown                 // a site's tail circuit, downward
	linkHostUp                   // a registered node's host up-link
	linkHostDown                 // the primary's or a receiver's host down-link
)

// role is what the dispatcher knows about one link, classified once when
// the deployment is registered.
type role struct {
	link linkKind
	site int   // tail circuits: receiver site index, -1 for the source site
	node *node // host links: the node the link attaches
}

// event is one entry of a run's history as every checker sees it. For
// evCrash and evDeliver, role.node is the node concerned.
type event struct {
	role
	kind evKind
	at   time.Time     // evTap, evMonitor, evSample
	tap  lbrm.TapEvent // evTap; Data is valid only during observe
	pkt  *wire.Packet  // evTap: the decoded datagram, nil if it does not decode
	data lbrm.Event    // evDeliver
}

// node is one registered protocol host. Every send its handler makes
// crosses its host up-link exactly once, and its obs sink is shared by all
// of its incarnations: restarts rebuild from the testbed's retained config.
type node struct {
	id    int
	name  string // "sender", "primary", "replica0", "site1/rcv0", ...
	pfx   string // metric prefix: sender, primary, secondary or recv
	sink  *obs.Sink
	site  int // site secondaries and receivers: site index; -1 elsewhere
	idx   int // receivers: index within the site; -1 elsewhere
	index int // registration order
}

// fleet is the deployment under test: the testbed, its registered nodes
// in registration order (sender, primary, replicas, regionals, then per
// site its secondary and receivers), and every handler's current
// incarnation — applyFault swaps restarted ones in.
type fleet struct {
	tb           *lbrm.Testbed
	nodes        []*node
	rcvNodes     []*node
	receivers    [][]*lbrm.Receiver
	secondaries  []*lbrm.SecondaryLogger
	primaries    []*lbrm.PrimaryLogger // [0] runs on the original primary's node
	primaryNodes []*lbrm.SimNode
}

// acting returns the live logging servers acting as primary.
func (f *fleet) acting() []*lbrm.PrimaryLogger {
	var out []*lbrm.PrimaryLogger
	for i, sn := range f.primaryNodes {
		if !sn.Crashed() && !f.primaries[i].IsReplica() {
			out = append(out, f.primaries[i])
		}
	}
	return out
}

// dispatch hands ev to every checker in registration order. Events never
// nest — checkers only read the fleet, they never drive it — so one
// scratch record serves every dispatch.
func (d *driver) dispatch(ev event) {
	d.ev = ev
	for _, c := range d.checkers {
		c.observe(&d.ev)
	}
}

// tap is the network tap: it decodes each traversal once, classifies its
// link once, and dispatches it.
func (d *driver) tap(te lbrm.TapEvent) {
	ev := event{kind: evTap, at: te.Time, tap: te, role: d.roles[te.Link]}
	if d.dec.Unmarshal(te.Data, &d.pkt) == nil {
		ev.pkt = &d.pkt
	}
	d.dispatch(ev)
}

// crash takes a node down and ends its incarnation for every checker.
func (d *driver) crash(sn *lbrm.SimNode) {
	sn.Crash()
	d.dispatch(event{kind: evCrash, role: role{node: d.roles[sn.UpLink()].node}})
}
