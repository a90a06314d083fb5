package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lbrm"
	"lbrm/internal/logger"
	"lbrm/internal/wire"
)

// buildSchedule derives the fault plan purely from the seed. The fault rng
// is separate from the network's, so the schedule is a function of the
// config alone.
func buildSchedule(cfg Config) []Fault {
	rng := rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 0x7F4A7C15))
	if cfg.HealthFault != "" {
		return healthSchedule(cfg, rng)
	}
	if cfg.Quorum > 0 {
		return quorumSchedule(cfg, rng)
	}
	if cfg.Regions > 0 {
		return hierarchySchedule(cfg, rng)
	}
	var kinds []string
	if !cfg.DisableCrashes {
		kinds = append(kinds, "crash-receiver", "crash-secondary")
		if cfg.Replicas > 0 {
			kinds = append(kinds, "crash-replica")
		}
	}
	if !cfg.DisablePartitions {
		kinds = append(kinds, "partition")
	}
	if !cfg.DisableLinkChaos {
		kinds = append(kinds, "flaky-link")
	}
	var out []Fault
	used := make(map[string]bool)
	target := func(f Fault) string {
		// Partition and flaky-link contend for the same tail links: treat
		// them as one target class per site so heals cannot clobber each
		// other's loss models.
		if f.Kind == "partition" || f.Kind == "flaky-link" {
			return fmt.Sprintf("link/%d", f.Site)
		}
		return fmt.Sprintf("%s/%d/%d", f.Kind, f.Site, f.Idx)
	}
	draw := func() (Fault, bool) {
		if len(kinds) == 0 {
			return Fault{}, false
		}
		f := Fault{
			Kind: kinds[rng.Intn(len(kinds))],
			Dur:  200*time.Millisecond + time.Duration(rng.Int63n(int64(1300*time.Millisecond))),
			Site: -1, Idx: -1,
		}
		if cfg.JoinWindow {
			// Join-window faults: everything lands before t = Duration/10,
			// while first contact is still being established.
			f.At = time.Duration(rng.Int63n(int64(cfg.Duration / 10)))
		} else {
			f.At = cfg.Duration/10 + time.Duration(rng.Int63n(int64(cfg.Duration*6/10)))
		}
		switch f.Kind {
		case "crash-receiver":
			f.Site = rng.Intn(cfg.Sites)
			f.Idx = rng.Intn(cfg.ReceiversPerSite)
		case "crash-secondary", "partition", "flaky-link":
			f.Site = rng.Intn(cfg.Sites)
		case "crash-replica":
			f.Idx = rng.Intn(cfg.Replicas)
		}
		return f, true
	}
	if cfg.Overlapping {
		// Overlapping windows on one tail circuit: a flaky-link window and
		// a partition window that intersect. Loss models stack (PushLoss
		// overlays), so the partition heal must not clobber the still-open
		// flaky window and vice versa.
		site := rng.Intn(cfg.Sites)
		used[fmt.Sprintf("link/%d", site)] = true
		out = append(out,
			Fault{Kind: "flaky-link", At: cfg.Duration / 4,
				Dur: 1500 * time.Millisecond, Site: site, Idx: -1},
			Fault{Kind: "partition", At: cfg.Duration/4 + 700*time.Millisecond,
				Dur: 1300 * time.Millisecond, Site: site, Idx: -1},
		)
	}
	// One fault per target keeps heals unambiguous, which also bounds the
	// schedule by the number of distinct targets: stop once draws keep
	// landing on used targets (narrow configs can exhaust them).
	for misses := 0; len(out) < cfg.Faults && misses < 64; {
		f, ok := draw()
		if !ok {
			break
		}
		if used[target(f)] {
			misses++
			continue
		}
		used[target(f)] = true
		out = append(out, f)
	}
	if cfg.CrashPrimary {
		out = append(out, Fault{
			Kind: "crash-primary",
			At:   cfg.Duration * 2 / 5,
			Dur:  1500 * time.Millisecond,
			Site: -1, Idx: -1,
		})
	}
	if cfg.SourcePartition {
		// Deterministic start (traffic established, room to heal and
		// reconverge); seed-drawn duration and isolation mode.
		out = append(out, Fault{
			Kind: "partition-source",
			At:   cfg.Duration * 2 / 5,
			Dur:  2*time.Second + time.Duration(rng.Int63n(int64(500*time.Millisecond))),
			Site: -1, Idx: rng.Intn(3),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// applyFault injects one fault and arms its heal: for a crash, the
// restart of the node's next incarnation.
func (d *driver) applyFault(f Fault) {
	var heal func()
	switch f.Kind {
	case "crash-receiver":
		sn := d.tb.Sites[f.Site].ReceiverNodes[f.Idx]
		d.crash(sn)
		heal = func() {
			d.receivers[f.Site][f.Idx] = lbrm.NewReceiver(d.tb.Sites[f.Site].ReceiverCfgs[f.Idx])
			d.restart(sn, d.receivers[f.Site][f.Idx])
		}
	case "crash-secondary":
		sn := d.tb.Sites[f.Site].SecondaryNode
		d.crash(sn)
		heal = func() {
			d.secondaries[f.Site] = lbrm.NewSecondaryLogger(d.tb.Sites[f.Site].SecondaryCfg)
			d.restart(sn, d.secondaries[f.Site])
		}
	case "crash-replica":
		sn := d.tb.ReplicaNodes[f.Idx]
		d.crash(sn)
		heal = func() {
			d.primaries[1+f.Idx] = d.newPrimary(d.tb.ReplicaCfgs[f.Idx])
			d.restart(sn, d.primaries[1+f.Idx])
		}
	case "crash-primary":
		sn := d.tb.PrimaryNode
		d.crash(sn)
		heal = func() {
			// A rebooted primary lost everything, including the knowledge
			// that it was primary: it comes back as a cold replica (the
			// sender has failed over — or will — to a live replica).
			rcfg := d.tb.PrimaryCfg
			rcfg.Replica = true
			rcfg.Replicas = nil
			rcfg.Peers = append([]lbrm.Addr(nil), d.tb.PrimaryCfg.Replicas...)
			d.primaries[0] = d.newPrimary(rcfg)
			d.restart(sn, d.primaries[0])
		}
	case "crash-regional":
		sn := d.tb.Regions[f.Idx].LoggerNode
		d.crash(sn)
		heal = func() {
			// The restarted regional announces itself with the next tree
			// epoch so its TypeReparent out-fences the boot announcement
			// and pulls re-homed children back (DESIGN.md §13).
			rcfg := d.tb.Regions[f.Idx].LoggerCfg
			rcfg.TreeEpoch++
			d.restart(sn, lbrm.NewSecondaryLogger(rcfg))
		}
	case "partition":
		// Overlay, not SetLoss: fault windows may overlap on one tail
		// circuit (Overlapping schedules), and each heal must remove only
		// its own contribution.
		site := d.tb.Sites[f.Site].Site
		gate := &lbrm.Gate{Down: true}
		healUp := site.TailUp().PushLoss(gate)
		healDown := site.TailDown().PushLoss(gate)
		heal = func() { healUp(); healDown() }
	case "crying-baby":
		// The §6 crying baby: one receiver's own drop cable turns lossy
		// while the rest of the fleet stays clean — it keeps missing data
		// (and losing repairs) and keeps demanding recovery from its site
		// secondary for the whole window.
		heal = d.tb.Sites[f.Site].ReceiverNodes[f.Idx].DownLink().PushLoss(lbrm.Bernoulli{P: 0.5})
	case "regional-loss":
		// A sustained regional loss episode: the site's shared tail-down
		// drops a fraction of everything, so every receiver and the site
		// secondary keep missing data together and repair demand persists
		// beyond the site.
		heal = d.tb.Sites[f.Site].Site.TailDown().PushLoss(lbrm.Bernoulli{P: 0.4})
	case "flaky-link":
		heal = d.tb.Sites[f.Site].Site.TailDown().PushLoss(lbrm.Compose(
			lbrm.Bernoulli{P: 0.3},
			lbrm.Reorder{P: 0.25, MaxDelay: 20 * time.Millisecond},
			lbrm.Duplicate{P: 0.1, Lag: 2 * time.Millisecond},
		))
	case "sync-blackout":
		// Every sync-class packet leaving the acting primary's host —
		// LogSync records, ring tokens, ring installs — vanishes, while
		// data, acks and NACK service keep flowing: the primary keeps
		// logging (and, in quorum mode, parking acks) packets it can no
		// longer replicate. Overlay so the heal composes with anything
		// else on the link.
		heal = d.tb.PrimaryNode.UpLink().PushLoss(classGate(wire.ClassSync))
	case "ring-partition":
		// One ring replica's host is cut off both ways: its predecessor's
		// tokens die, the ring stalls, and the primary must fall back to
		// direct fan-in and repair a ring around the dead hop.
		heal = d.tb.ReplicaNodes[f.Idx].Isolate(true, true)
	case "partition-regional":
		// The regional keeps its state and timers but hears and reaches
		// nothing: children must degrade to the sibling region, never the
		// primary.
		heal = d.tb.Regions[f.Idx].LoggerNode.Isolate(true, true)
	case "down-outage":
		// Gate only the site's tail-down: the site misses data together,
		// but its upward control path stays open, so recovery pressure
		// lands on whatever parent tier is (or is not) alive.
		heal = d.tb.Sites[f.Site].Site.TailDown().PushLoss(&lbrm.Gate{Down: true})
	case "partition-source":
		// The acting primary's host is cut off — deaf, mute, or both — with
		// all its state and timers intact. It receives nothing (deaf) or
		// its acks vanish (mute), so the sender's idle detection fails over
		// to a replica and mints the next epoch; after the heal the stale
		// primary's authority must be fenced everywhere until a heartbeat
		// carrying the new epoch demotes it.
		heal = d.tb.PrimaryNode.Isolate(f.Idx == 0 || f.Idx == 1, f.Idx == 0 || f.Idx == 2)
	}
	d.tb.Net.Clock().AfterFunc(f.Dur, heal)
}

// restart brings a crashed node back with its next incarnation h.
func (d *driver) restart(sn *lbrm.SimNode, h interface {
	lbrm.Handler
	Stop()
}) {
	d.stoppables = append(d.stoppables, h)
	sn.Restart(h)
}

// newPrimary builds a restarted logging server's next incarnation.
func (d *driver) newPrimary(cfg lbrm.PrimaryConfig) *lbrm.PrimaryLogger {
	p := lbrm.NewPrimaryLogger(cfg)
	if d.cfg.disableFencing {
		logger.UnfenceForTest(p)
	}
	return p
}
