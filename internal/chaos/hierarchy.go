package chaos

import (
	"math/rand"
	"sort"
)

// Hierarchy schedule classes. When Config.Regions > 0 the harness builds
// a three-tier logger tree (site secondaries under regional loggers under
// the primary) and runs one of three fault classes against the middle
// tier, always composed with a down-outage on one member site so there is
// recovery demand in flight while the tier is degraded:
//
//   - regional-crash: one regional logger dies mid-recovery and restarts
//     with the next tree epoch. Its children must re-home to the sibling
//     regional, keep recovering there, and follow the reborn logger's
//     epoch-fenced announcement back.
//   - tier-partition: one regional logger is isolated both ways for the
//     window, then healed without restarting. Children must degrade to
//     the sibling — the lowest live tier — and never park on the primary.
//   - cascade: the faulted site's secondary AND its regional crash
//     together. Receivers must walk both dead tiers in order and reach
//     the primary with NACKs stamped at the primary's global tier.
//
// The invariants (DESIGN.md §13) are tierSkip's, hierarchyChecker's and
// noSkip's.
const (
	hierFaultRegionalCrash = "regional-crash"
	hierFaultTierPartition = "tier-partition"
	hierFaultCascade       = "cascade"
)

// treeDepth is the primary's global tier in the harness's three-tier
// deployment: site secondary = 0, regional = 1, primary = 2.
const treeDepth = 2

// hierarchySchedule derives the hierarchy fault plan from the seed: the
// configured — or seed-drawn — fault class against one regional, plus a
// short down-outage on one of that region's sites to put recovery demand
// on the degraded tier. Offsets are fractions of Duration so the faulted
// window scales with the run: the outage opens just after the tier fault
// lands, the regional restart (~55%) leaves the convergence phase free to
// observe the re-parent protocol pulling children back.
func hierarchySchedule(cfg Config, rng *rand.Rand) []Fault {
	kind := cfg.HierarchyFault
	if kind == "" {
		kind = [...]string{hierFaultRegionalCrash, hierFaultTierPartition,
			hierFaultCascade}[rng.Intn(3)]
	}
	region := rng.Intn(cfg.Regions)
	var members []int
	for s := region; s < cfg.Sites; s += cfg.Regions {
		members = append(members, s)
	}
	site := members[rng.Intn(len(members))]

	d := cfg.Duration
	out := []Fault{{Kind: "down-outage", At: d * 32 / 100, Dur: d * 3 / 100,
		Site: site, Idx: -1}}
	switch kind {
	case hierFaultRegionalCrash:
		out = append(out, Fault{Kind: "crash-regional",
			At: d * 30 / 100, Dur: d * 25 / 100, Site: -1, Idx: region})
	case hierFaultTierPartition:
		out = append(out, Fault{Kind: "partition-regional",
			At: d * 30 / 100, Dur: d * 25 / 100, Site: -1, Idx: region})
	case hierFaultCascade:
		out = append(out,
			Fault{Kind: "crash-regional", At: d * 30 / 100, Dur: d * 25 / 100,
				Site: -1, Idx: region},
			Fault{Kind: "crash-secondary", At: d * 31 / 100, Dur: d * 20 / 100,
				Site: site, Idx: -1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// hierarchyChecker checks where the faulted site's secondary ended up
// after a regional crash or partition (rehome, rehome-converge). The
// tier-skip and tier-walk checks are tierSkip's, no-acked-loss is
// noSkip's.
type hierarchyChecker struct {
	res *Result
	f   *fleet
}

func (hierarchyChecker) observe(*event) {}

func (c hierarchyChecker) final() {
	var crashed, cascaded bool
	region, site := -1, -1
	for _, f := range c.res.Schedule {
		switch f.Kind {
		case "crash-regional", "partition-regional":
			crashed, region = f.Kind == "crash-regional", f.Idx
		case "crash-secondary":
			cascaded = true
		case "down-outage":
			site = f.Site
		}
	}
	// A cascade kills both lower tiers together: tierSkip checks the walk.
	if site < 0 || region < 0 || cascaded {
		return
	}
	// The faulted site's secondary must have re-homed off its dead or
	// isolated parent: the sibling detour is observable in Rehomes.
	sec := c.f.secondaries[site]
	st := sec.Stats()
	if st.Rehomes == 0 {
		c.res.violate("rehome", "site%d secondary never re-homed off its faulted regional (fetches=%d)",
			site+1, st.NacksToPrimary)
	}
	addr, tier := sec.Parent()
	if !crashed {
		// The regional healed without restarting, so no announcement pulls
		// children back: the re-homed secondary must have stopped at the
		// sibling — the lowest live tier — and never parked on the primary.
		if tier > 1 {
			c.res.violate("rehome-converge", "site%d secondary degraded past the live sibling tier to %v tier %d",
				site+1, addr, tier)
		}
		return
	}
	// The reborn regional's announcement (tree epoch 2) pulls it back:
	// the return is observable in ReparentsFollowed and the final parent.
	if st.ReparentsFollowed == 0 {
		c.res.violate("rehome-converge", "site%d secondary never followed the reborn regional's announcement", site+1)
	}
	if home := c.f.tb.Regions[region].LoggerNode.Addr(); addr != home || tier != 1 {
		c.res.violate("rehome-converge", "site%d secondary parked on %v tier %d, want reborn regional %v tier 1",
			site+1, addr, tier, home)
	}
}
