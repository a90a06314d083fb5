package chaos

import (
	"slices"
	"time"

	"lbrm/internal/netsim"
	"lbrm/internal/obs"
	"lbrm/internal/wire"
)

// flightChecker is the flight recorder's headline invariant (DESIGN.md
// §10): every packet a receiver recovered — by its own OnData ledger —
// has a complete, causally ordered recovery chain stitched from the
// flight rings (detect → NACK → serve → deliver), and the chain's hop
// timestamps reconcile with the wire's independent measurements within
// flightTick: the first NACK departure per sequence on the receiver's
// host up-link, and every repair arrival on its host down-link.
//
// A receiver that crashed shares one flight ring across incarnations,
// where duplicate terminals are legitimate: only chain existence and a
// deliver event are required of it. The chains are counted into Result
// and their latency breakdowns folded into reg.
type flightChecker struct {
	res *Result
	f   *fleet
	rcv map[*node]*rcvFlight
	reg *obs.Registry
}

// rcvFlight is one receiver's side of the reconciliation.
type rcvFlight struct {
	recovered map[uint64]bool
	repairs   map[uint64][]tapRepair
	nackFirst map[uint64]time.Time
	restarted bool
}

// tapRepair is one repair arriving at a receiver: at is tap time plus the
// host link's (jitter-free) delay, path the wire-level classification.
type tapRepair struct {
	at   time.Time
	path wire.RecoveryPath
}

// flightTick is the reconciliation tolerance between the flight recorder's
// hop timestamps and the wire: one host-link propagation delay (host links
// carry no jitter, so delivery happens at tap time + delay exactly; the
// tolerance absorbs rounding only).
const flightTick = netsim.DefaultLANDelay

// of returns n's reconciliation state, creating it on first use.
func (c *flightChecker) of(n *node) *rcvFlight {
	r := c.rcv[n]
	if r == nil {
		r = &rcvFlight{recovered: make(map[uint64]bool),
			repairs: make(map[uint64][]tapRepair), nackFirst: make(map[uint64]time.Time)}
		c.rcv[n] = r
	}
	return r
}

func (c *flightChecker) observe(ev *event) {
	if ev.node == nil || ev.node.idx < 0 {
		return // only receivers are reconciled
	}
	switch {
	case ev.kind == evCrash:
		c.of(ev.node).restarted = true
	case ev.kind == evDeliver && ev.data.Retransmitted:
		c.of(ev.node).recovered[ev.data.Seq] = true
	case ev.pkt == nil:
	case ev.link == linkHostUp && ev.pkt.Type == wire.TypeNack:
		// Drops included: a NACK that dies downstream was still issued
		// at this instant.
		m := c.of(ev.node).nackFirst
		for _, rg := range ev.pkt.Ranges {
			for seq := rg.From; seq <= rg.To; seq++ {
				if _, seen := m[seq]; !seen {
					m[seq] = ev.at
				}
			}
		}
	case ev.link == linkHostDown && !ev.tap.Dropped:
		if path := wire.ClassifyRecovery(ev.pkt.Type, ev.pkt.Flags); path != wire.PathNone {
			m := c.of(ev.node).repairs
			m[ev.pkt.Seq] = append(m[ev.pkt.Seq], tapRepair{at: ev.at.Add(ev.tap.Link.Delay()), path: path})
		}
	}
}

func (c *flightChecker) final() {
	c.reg = obs.NewRegistry()
	// Every server-side ring: a remote site's re-multicast can repair a
	// local loss, so each receiver is stitched against all of them.
	var servers [][]obs.Event
	for _, n := range c.f.nodes {
		if n.pfx == "sender" || n.pfx == "primary" || (n.pfx == "secondary" && n.site >= 0) {
			servers = append(servers, n.sink.FlightRing().Snapshot())
		}
	}
	// A broken recorder would trip once per recovered packet; cap the
	// detailed reports and summarize the rest.
	tripped := 0
	flag := func(name, format string, args ...any) {
		if tripped < 3 {
			c.res.violate(name, format, args...)
		}
		tripped++
	}
	for _, n := range c.f.rcvNodes {
		r := c.of(n)
		chains := obs.StitchFlights(n.sink.FlightRing().Snapshot(), servers...)
		obs.FoldFlightChains(c.reg, chains)
		c.res.FlightChains += uint64(len(chains))
		for _, ch := range chains {
			if ch.Complete() {
				c.res.FlightComplete++
			}
		}
		for seq := range r.recovered {
			r.check(n.name, seq, chains[seq], flag)
		}
		// The converse: a strict receiver's deliver terminal must be a
		// recovery it observed itself — the recorder cannot invent
		// recoveries either.
		if !r.restarted {
			for seq, ch := range chains {
				if ch.Terminal == obs.KindDeliver && !r.recovered[seq] {
					flag("flight-chain", "%s seq %d: deliver terminal with no harness-observed recovery", n.name, seq)
				}
			}
		}
	}
	if tripped > 3 {
		c.res.violate("flight", "%d flight-recorder violations in total (first 3 detailed)", tripped)
	}
}

// check reconciles the chain of one recovered sequence number.
func (r *rcvFlight) check(who string, seq uint64, ch *obs.FlightChain, flag func(name, format string, args ...any)) {
	if ch == nil {
		flag("flight-chain", "%s recovered seq %d with no flight chain", who, seq)
		return
	}
	if !slices.ContainsFunc(ch.Events, func(ev obs.Event) bool { return ev.Kind == obs.KindDeliver }) {
		flag("flight-chain", "%s recovered seq %d: chain has no deliver event", who, seq)
		return
	}
	if r.restarted {
		return
	}
	if ch.Terminal != obs.KindDeliver || !ch.Complete() {
		flag("flight-chain", "%s seq %d: incomplete chain (terminal=%v terminals=%d detectAt=%d nackAt=%d serveAt=%d path=%v)",
			who, seq, ch.Terminal, ch.TerminalCount, ch.DetectAt, ch.NackAt, ch.ServeAt, ch.Path)
		return
	}
	if !ch.CausallyOrdered() {
		flag("flight-causal", "%s seq %d: hops out of causal order (detect=%d nack=%d serve=%d deliver=%d)",
			who, seq, ch.DetectAt, ch.NackAt, ch.ServeAt, ch.TerminalAt)
		return
	}
	// Delivery reconciliation: the receiver delivers at the first repair
	// arrival on the wire, and the delivering repair's wire-classified
	// path must match the chain's.
	arrivals := r.repairs[seq]
	if len(arrivals) == 0 {
		flag("flight-reconcile", "%s seq %d: chain delivers but the tap saw no repair arrive", who, seq)
		return
	}
	first := arrivals[0]
	pathMatch := false
	for _, a := range arrivals {
		if a.at.Before(first.at) {
			first = a
		}
		if a.path == ch.Path && absDur(ch.TerminalAt-a.at.UnixNano()) <= flightTick {
			pathMatch = true
		}
	}
	if d := absDur(ch.TerminalAt - first.at.UnixNano()); d > flightTick {
		flag("flight-reconcile", "%s seq %d: deliver at %d vs tap first repair arrival %d (off by %v, tolerance %v)",
			who, seq, ch.TerminalAt, first.at.UnixNano(), d, flightTick)
	} else if !pathMatch {
		flag("flight-reconcile", "%s seq %d: chain path %v has no matching tap arrival near the delivery",
			who, seq, ch.Path)
	}
	if !ch.Detected() {
		return
	}
	// The deliver event's own latency measurement must equal the chain's
	// detect→deliver span.
	if d := absDur(int64(ch.DeliverLatency) - (ch.TerminalAt - ch.DetectAt)); d > flightTick {
		flag("flight-latency", "%s seq %d: recorded latency %v vs chain span %v",
			who, seq, ch.DeliverLatency, time.Duration(ch.TerminalAt-ch.DetectAt))
	}
	// NACK reconciliation: the chain's first NACK is the first NACK seen
	// leaving this receiver covering the seq.
	if ch.NackAt != 0 {
		tapN, ok := r.nackFirst[seq]
		if !ok {
			flag("flight-reconcile", "%s seq %d: chain records a NACK the tap never saw leave", who, seq)
		} else if d := absDur(ch.NackAt - tapN.UnixNano()); d > flightTick {
			flag("flight-reconcile", "%s seq %d: NACK at %d vs tap %d (off by %v)",
				who, seq, ch.NackAt, tapN.UnixNano(), d)
		}
	}
}

// absDur returns |ns| as a duration.
func absDur(ns int64) time.Duration {
	if ns < 0 {
		ns = -ns
	}
	return time.Duration(ns)
}
