package netsim

import (
	"math/rand"
	"time"
)

// LossModel decides, per packet traversal of one link, whether the packet
// is dropped. Implementations may keep state (burst models); they are
// invoked from the single-threaded simulator loop, so no locking is needed.
type LossModel interface {
	Drop(now time.Time, rng *rand.Rand) bool
}

// PacketAwareLoss is an optional extension: models that need to inspect
// the datagram (e.g. to target only data packets) implement it and the
// link uses DropPacket instead of Drop. The buffer is only valid for the
// call — the simulator reuses unicast buffers once a copy's life ends —
// and must not be retained or modified.
type PacketAwareLoss interface {
	LossModel
	DropPacket(now time.Time, rng *rand.Rand, data []byte) bool
}

// LossNone never drops.
type LossNone struct{}

// Drop implements LossModel.
func (LossNone) Drop(time.Time, *rand.Rand) bool { return false }

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct{ P float64 }

// Drop implements LossModel.
func (b Bernoulli) Drop(_ time.Time, rng *rand.Rand) bool {
	return rng.Float64() < b.P
}

// GilbertElliott is a two-state burst loss model. In the Good state packets
// drop with probability LossGood; in the Bad state with LossBad. After each
// packet, the state flips Good→Bad with probability PGoodToBad and Bad→Good
// with probability PBadToGood. It produces the bursty, correlated loss
// typical of a congested tail circuit.
type GilbertElliott struct {
	PGoodToBad float64
	PBadToGood float64
	LossGood   float64
	LossBad    float64

	bad bool
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(_ time.Time, rng *rand.Rand) bool {
	var p float64
	if g.bad {
		p = g.LossBad
	} else {
		p = g.LossGood
	}
	drop := rng.Float64() < p
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	return drop
}

// Window is a half-open time interval [Start, End).
type Window struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// Outages drops every packet whose traversal begins inside one of the
// configured windows — the paper's "burst model of congestion" (§2.1.1)
// where a host receives nothing for t_burst.
type Outages struct {
	Windows []Window
}

// Drop implements LossModel.
func (o *Outages) Drop(now time.Time, _ *rand.Rand) bool {
	for _, w := range o.Windows {
		if w.Contains(now) {
			return true
		}
	}
	return false
}

// Gate is a manually switched loss model: while Down, everything drops.
// Experiments flip it from scheduled callbacks.
type Gate struct{ Down bool }

// Drop implements LossModel.
func (g *Gate) Drop(time.Time, *rand.Rand) bool { return g.Down }

// FirstN drops the first N packets that traverse the link, then passes
// everything. Useful for deterministic single-loss tests.
type FirstN struct {
	N    int
	seen int
}

// Drop implements LossModel.
func (f *FirstN) Drop(time.Time, *rand.Rand) bool {
	if f.seen < f.N {
		f.seen++
		return true
	}
	return false
}

// DropSeqs drops exactly the packets whose 1-based traversal index over the
// link is listed. It gives tests full control of which packet is lost.
type DropSeqs struct {
	Indices map[int]bool
	count   int
}

// Drop implements LossModel.
func (d *DropSeqs) Drop(time.Time, *rand.Rand) bool {
	d.count++
	return d.Indices[d.count]
}

// ReorderingModel is an optional LossModel extension: surviving packets may
// be held back by an extra delay, letting later packets overtake them. The
// link adds ExtraDelay's result to the packet's arrival time.
type ReorderingModel interface {
	LossModel
	ExtraDelay(now time.Time, rng *rand.Rand) time.Duration
}

// DuplicatingModel is an optional LossModel extension: surviving packets may
// be delivered twice. When Duplicate reports true, the link schedules a
// second copy lagging the original by the returned duration.
type DuplicatingModel interface {
	LossModel
	Duplicate(now time.Time, rng *rand.Rand) (lag time.Duration, dup bool)
}

// Reorder never drops; with probability P it delays a packet by an extra
// uniform amount in (0, MaxDelay], so packets sent close together can arrive
// out of order. Compose it with a drop model for lossy-and-reordering links.
type Reorder struct {
	P        float64
	MaxDelay time.Duration
}

// Drop implements LossModel (never drops).
func (Reorder) Drop(time.Time, *rand.Rand) bool { return false }

// ExtraDelay implements ReorderingModel.
func (r Reorder) ExtraDelay(_ time.Time, rng *rand.Rand) time.Duration {
	if r.MaxDelay <= 0 || rng.Float64() >= r.P {
		return 0
	}
	return time.Duration(rng.Int63n(int64(r.MaxDelay))) + 1
}

// Duplicate never drops; with probability P it delivers a second copy of the
// packet, Lag after the original (0 means back-to-back). Receiver-side
// dedup is the protocol's job, not the network's.
type Duplicate struct {
	P   float64
	Lag time.Duration
}

// Drop implements LossModel (never drops).
func (Duplicate) Drop(time.Time, *rand.Rand) bool { return false }

// Duplicate implements DuplicatingModel.
func (d Duplicate) Duplicate(_ time.Time, rng *rand.Rand) (time.Duration, bool) {
	if rng.Float64() >= d.P {
		return 0, false
	}
	return d.Lag, true
}

// Chain composes several loss models on one link: a packet drops if any
// member drops it, reorder delays add, and the first member that duplicates
// wins. Every member is consulted on every packet (even after an earlier
// member already dropped it) so each model's rng/state stream advances
// identically whatever the others decide — a prerequisite for reproducible
// fault schedules.
type Chain struct{ Models []LossModel }

// Compose builds a Chain; nil members are skipped.
func Compose(models ...LossModel) *Chain {
	c := &Chain{}
	for _, m := range models {
		if m != nil {
			c.Models = append(c.Models, m)
		}
	}
	return c
}

// Drop implements LossModel.
func (c *Chain) Drop(now time.Time, rng *rand.Rand) bool {
	drop := false
	for _, m := range c.Models {
		if m.Drop(now, rng) {
			drop = true
		}
	}
	return drop
}

// DropPacket implements PacketAwareLoss, routing to members' DropPacket
// where available.
func (c *Chain) DropPacket(now time.Time, rng *rand.Rand, data []byte) bool {
	drop := false
	for _, m := range c.Models {
		var d bool
		if pa, ok := m.(PacketAwareLoss); ok {
			d = pa.DropPacket(now, rng, data)
		} else {
			d = m.Drop(now, rng)
		}
		if d {
			drop = true
		}
	}
	return drop
}

// ExtraDelay implements ReorderingModel, summing members' extra delays.
func (c *Chain) ExtraDelay(now time.Time, rng *rand.Rand) time.Duration {
	var total time.Duration
	for _, m := range c.Models {
		if rm, ok := m.(ReorderingModel); ok {
			total += rm.ExtraDelay(now, rng)
		}
	}
	return total
}

// Duplicate implements DuplicatingModel; the first member that duplicates
// wins (later members are still consulted to keep their rng draws aligned).
func (c *Chain) Duplicate(now time.Time, rng *rand.Rand) (time.Duration, bool) {
	var lag time.Duration
	dup := false
	for _, m := range c.Models {
		if dm, ok := m.(DuplicatingModel); ok {
			if l, d := dm.Duplicate(now, rng); d && !dup {
				lag, dup = l, true
			}
		}
	}
	return lag, dup
}

// DropMatching drops, among packets satisfying Match, exactly those whose
// 1-based match index is listed in Indices. Packets that do not match are
// never dropped. It implements PacketAwareLoss; used to lose "the 3rd data
// packet" while heartbeats and repairs flow freely.
type DropMatching struct {
	Match   func(data []byte) bool
	Indices map[int]bool
	count   int
}

// Drop implements LossModel (no packet available: never drops).
func (d *DropMatching) Drop(time.Time, *rand.Rand) bool { return false }

// DropPacket implements PacketAwareLoss.
func (d *DropMatching) DropPacket(_ time.Time, _ *rand.Rand, data []byte) bool {
	if d.Match == nil || !d.Match(data) {
		return false
	}
	d.count++
	return d.Indices[d.count]
}
