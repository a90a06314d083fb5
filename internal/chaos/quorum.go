package chaos

import (
	"math/rand"
	"sort"
	"time"

	"lbrm"
	"lbrm/internal/wire"
)

// Quorum schedule classes. When Config.Quorum > 0 the harness runs the
// durability matrix instead of the generic fault roulette: one single
// fault targeting the replication machinery — the acting primary, one
// ring replica, or one ring link — composed with a receiver-site
// partition that forces post-heal recovery pressure onto whatever server
// holds authority afterwards. Invariant 11 (DESIGN.md §12) then demands
// perfection: with a surviving write quorum, no receiver ever skips a
// sequence number, no ranges are abandoned, no backfill hole is declared
// unrecoverable, and no source-acked sequence is lost.
//
// The crash-primary class is the adversarial centerpiece: a sync-class
// blackout on the primary's up-link starves the replicas first, then the
// primary crashes at the blackout's edge. Quorum mode survives because
// the sender still retains everything past the parked watermark; with
// quorumRevert the same schedule loses acked data, visibly — the proof
// that the mechanism, not luck, closes the window (DESIGN.md §12).
const (
	quorumFaultCrashPrimary = "crash-primary"
	quorumFaultCrashReplica = "crash-replica"
	quorumFaultRingLink     = "ring-partition"
	quorumFaultNone         = "none"
)

// classGate is a packet-aware loss model dropping every packet of one
// wire traffic class. Undecodable runts pass.
type classGate wire.TrafficClass

// Drop implements netsim.LossModel (class unknown without bytes: pass).
func (classGate) Drop(time.Time, *rand.Rand) bool { return false }

// DropPacket implements netsim.PacketAwareLoss.
func (c classGate) DropPacket(_ time.Time, _ *rand.Rand, data []byte) bool {
	return len(data) > 3 && wire.ClassOf(wire.Type(data[3])) == wire.TrafficClass(c)
}

// quorumSchedule derives the quorum durability schedule from the seed:
// one receiver-site partition (recovery pressure) plus the configured —
// or seed-drawn — single replication fault. QuorumFault "none" schedules
// nothing (used by the per-packet replication-cost accounting, which
// wants a fault-free baseline).
func quorumSchedule(cfg Config, rng *rand.Rand) []Fault {
	kind := cfg.QuorumFault
	if kind == "" {
		kind = [...]string{quorumFaultCrashPrimary, quorumFaultCrashReplica,
			quorumFaultRingLink}[rng.Intn(3)]
	}
	if kind == quorumFaultNone {
		return nil
	}
	d := cfg.Duration
	out := []Fault{{
		Kind: "partition", At: d * 32 / 100, Dur: d * 13 / 100,
		Site: rng.Intn(cfg.Sites), Idx: -1,
	}}
	switch kind {
	case quorumFaultCrashPrimary:
		// Blackout ends just after the crash so the heal never races the
		// crash at the same virtual instant; healing a dead node's link
		// overlay is harmless.
		out = append(out,
			Fault{Kind: "sync-blackout", At: d * 28 / 100, Dur: d * 13 / 100,
				Site: -1, Idx: -1},
			Fault{Kind: "crash-primary", At: d * 2 / 5,
				Dur: 1500 * time.Millisecond, Site: -1, Idx: -1})
	case quorumFaultCrashReplica:
		out = append(out, Fault{Kind: "crash-replica", At: d * 35 / 100,
			Dur: 1500 * time.Millisecond, Site: -1, Idx: rng.Intn(cfg.Replicas)})
	case quorumFaultRingLink:
		out = append(out, Fault{Kind: "ring-partition", At: d * 33 / 100,
			Dur: 2 * time.Second, Site: -1, Idx: rng.Intn(cfg.Replicas)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// quorumChecker holds the server side of invariant 11 (DESIGN.md §12);
// the receiver side is noSkip. It also runs — and is meant to trip —
// under the quorumRevert knob, where the same schedule executes with
// replication disabled:
//
//   - quorum-skip: no promoted replica ever declared a backfill hole
//     unrecoverable;
//   - quorum-acked-loss: the highest sequence any primary source-acked on
//     the wire (delivered traversals: a lost ack never released anything
//     at the sender) is held contiguously by the server acting at the
//     end of the run.
type quorumChecker struct {
	res    *Result
	f      *fleet
	maxAck uint64
}

func (c *quorumChecker) observe(ev *event) {
	if ev.pkt != nil && ev.pkt.Type == wire.TypeSourceAck && !ev.tap.Dropped {
		c.maxAck = max(c.maxAck, ev.pkt.Seq)
	}
}

func (c *quorumChecker) final() {
	var skipped uint64
	for _, p := range c.f.primaries {
		skipped += p.Stats().BackfillSkipped
	}
	if skipped > 0 {
		c.res.violate("quorum-skip", "%d sequence numbers declared unrecoverable by promoted replicas", skipped)
	}
	key := lbrm.LogStreamKey{Source: c.f.tb.Source, Group: c.f.tb.Group}
	for _, p := range c.f.acting() {
		if got := p.Contiguous(key); got < c.maxAck {
			c.res.violate("quorum-acked-loss", "acting primary holds %d contiguous but %d was source-acked on the wire",
				got, c.maxAck)
		}
	}
}
