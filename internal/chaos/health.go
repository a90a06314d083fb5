package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/obs/health"
	"lbrm/internal/obs/series"
)

const (
	healthFaultCryingBaby   = "crying-baby"
	healthFaultRegionalLoss = "regional-loss"
	healthFaultNone         = "none"
)

// healthSeriesCap bounds each entity's sample ring; window queries only
// ever look back Config.Window, so wrap-around past it is fine.
const healthSeriesCap = 64

// healthConfig is the engine tuning for chaos runs: Defaults with the
// fleet storm threshold rescaled to the simulator's send rate (the
// daemon default of 60 NACKs/s assumes real DIS traffic, two decades
// above the harness's ~7 packets/s).
func healthConfig() health.Config {
	cfg := health.Defaults()
	cfg.EvalEvery = flightSampleEvery
	cfg.NackStormRate = 30
	return cfg
}

// healthSchedule replaces the random fault plan with one long-lived
// detection target whose window comfortably outlasts the engine's
// detection bound.
func healthSchedule(cfg Config, rng *rand.Rand) []Fault {
	d := cfg.Duration
	switch cfg.HealthFault {
	case healthFaultCryingBaby:
		return []Fault{{Kind: "crying-baby", At: d / 4, Dur: d * 11 / 20,
			Site: rng.Intn(cfg.Sites), Idx: rng.Intn(cfg.ReceiversPerSite)}}
	case healthFaultRegionalLoss:
		return []Fault{{Kind: "regional-loss", At: d / 4, Dur: d * 11 / 20,
			Site: rng.Intn(cfg.Sites), Idx: -1}}
	}
	return nil // healthFaultNone: the zero-alert baseline
}

// healthChecker is the health side of the harness (DESIGN.md §15). Every
// run arms the health/SLO engine over one entity per site (secondary and
// receivers merged: the site's aggregate repair demand) and one "servers"
// entity for the primary tier, sampled and evaluated on the flight
// sampler's tick, so detection latency is measured against the fault
// schedule under the exact conditions the invariants replay. Dedicated
// HealthFault schedules inject the canonical detection targets: the §6
// crying-baby receiver and a sustained regional loss episode; the quorum
// schedule's ring-partition is the ring-stall target.
type healthChecker struct {
	res    *Result
	start  time.Time
	sink   *obs.Sink
	engine *health.Engine
	// samplers[i] samples members[i]: site i, the servers last.
	samplers []*series.Sampler
	members  [][]*node
}

func newHealthChecker(res *Result, f *fleet, start time.Time) *healthChecker {
	c := &healthChecker{res: res, start: start, sink: obs.NewSink()}
	c.engine = health.NewEngine(healthConfig(), c.sink)
	var servers []*node
	for _, n := range f.nodes {
		if n.site >= len(c.members) {
			c.members = append(c.members, nil)
		}
		if n.site >= 0 {
			c.members[n.site] = append(c.members[n.site], n)
		} else if n.pfx == "primary" {
			servers = append(servers, n)
		}
	}
	c.members = append(c.members, servers)
	for i := range c.members {
		c.samplers = append(c.samplers, series.NewSampler(nil, healthSeriesCap))
		if i < len(c.members)-1 {
			c.engine.AddEntity(fmt.Sprintf("site%d", i+1), false, c.samplers[i])
		} else {
			c.engine.AddEntity("servers", true, c.samplers[i])
		}
	}
	return c
}

func (c *healthChecker) observe(ev *event) {
	if ev.kind != evSample {
		return
	}
	now := ev.at.UnixNano()
	for i, smp := range c.samplers {
		snaps := make([]obs.Snapshot, len(c.members[i]))
		for j, n := range c.members[i] {
			snaps[j] = n.sink.Registry().Snapshot()
		}
		smp.SampleSnapshot(now, obs.Merge(snaps...))
	}
	c.engine.Eval(now)
}

// final records the engine's verdict — the full alert history (cleared
// then still-active, in raise order within each group) and the first
// raise offset per rule — then checks it.
func (c *healthChecker) final() {
	c.res.HealthBound = c.engine.Config().DetectionBound()
	c.res.HealthEvals = c.engine.Evals()
	c.res.HealthAlerts = append(c.engine.History(), c.engine.Active()...)
	c.res.HealthDetection = make(map[string]time.Duration)
	for _, a := range c.res.HealthAlerts {
		at := time.Duration(a.RaisedAt - c.start.UnixNano())
		if cur, ok := c.res.HealthDetection[a.RuleName]; !ok || at < cur {
			c.res.HealthDetection[a.RuleName] = at
		}
	}
	c.check()
}

// check enforces the observability contract:
//
//   - health-false-positive: a run with an empty fault schedule must
//     never raise any alert;
//   - health-detection: every injected detection target whose symptom
//     actually materialized must be flagged within the engine's
//     documented DetectionBound of the fault start — crying-baby as a
//     crying-baby alert on the right site, regional-loss as any alert on
//     the afflicted site (or a fleet NACK storm), and a quorum
//     ring-partition as a ring-stall alert on the servers entity.
func (c *healthChecker) check() {
	if len(c.res.Schedule) == 0 {
		if n := len(c.res.HealthAlerts); n > 0 {
			c.res.violate("health-false-positive",
				"%d alerts on a faultless run (first: %+v)", n, c.res.HealthAlerts[0])
		}
		return
	}
	for _, f := range c.res.Schedule {
		switch f.Kind {
		case "crying-baby":
			site := fmt.Sprintf("site%d", f.Site+1)
			c.requireDetection(f, "crying-baby alert on "+site, func(a health.Alert) bool {
				return a.Rule == health.RuleCryingBaby && a.Entity == site
			})
		case "regional-loss":
			site := fmt.Sprintf("site%d", f.Site+1)
			c.requireDetection(f, "site alert on "+site+" or fleet NACK storm", func(a health.Alert) bool {
				return a.Entity == site || a.Rule == health.RuleNackStorm
			})
		case "ring-partition":
			var stalls uint64
			for _, n := range c.members[len(c.members)-1] {
				stalls += n.sink.Counter("primary.quorum.ring_stalls").Value()
			}
			if stalls == 0 {
				break // the fault produced no symptom; nothing to detect
			}
			c.requireDetection(f, "ring-stall alert", func(a health.Alert) bool {
				return a.Rule == health.RuleRingStall
			})
		}
	}
}

// requireDetection checks that some matching alert raised within the
// detection bound of the fault start.
func (c *healthChecker) requireDetection(f Fault, what string, match func(health.Alert) bool) {
	bound := c.res.HealthBound
	startNs := c.start.UnixNano()
	best := time.Duration(-1)
	for _, a := range c.res.HealthAlerts {
		if !match(a) {
			continue
		}
		lat := time.Duration(a.RaisedAt-startNs) - f.At
		if best < 0 || lat < best {
			best = lat
		}
	}
	switch {
	case best < 0:
		c.res.violate("health-detection", "%s never raised (fault %v)", what, f)
	case best > bound:
		c.res.violate("health-detection", "%s raised %v after the fault, beyond the documented bound %v (fault %v)",
			what, best, bound, f)
	}
}
