package main

import (
	"fmt"

	"lbrm/internal/wire"
)

// ledger is what the correctness check reads: what each stream sent, what
// each receiver delivered, and what each injector dropped.
type ledger struct {
	tx        []*txStream
	rx        [][]*rxStream // [receiver][stream]
	injectors []*injector   // receivers' only: a logger's drops never reach an application
	drained   bool
}

// judge fills in the report's verdict. A run is correct when every
// receiver delivered every seq of every stream exactly once with the
// bytes that were sent, every injected drop came back as a repair, and
// nothing was lost, refused or skewed on the way.
func (l ledger) judge(rep *report) {
	fail := func(n uint64, format string, args ...any) {
		if n > 0 {
			rep.failed += n
			rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
		}
	}
	for _, t := range l.tx {
		sent := t.sent.Load()
		rep.attempted += (sent + t.sendErrs) * uint64(len(l.rx))
		fail(t.sendErrs*uint64(len(l.rx)), "stream %d: %d Send errors", t.group, t.sendErrs)
		if t.seqSkew > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("stream %d: Send returned an unexpected seq %d times", t.group, t.seqSkew))
		}
	}
	for r, streams := range l.rx {
		for _, rs := range streams {
			sent, got := rs.tx.sent.Load(), rs.delivered.Load()
			var missing uint64
			if got < sent {
				missing = sent - got
			}
			g := rs.tx.group
			fail(missing, "receiver %d stream %d: %d of %d seqs never delivered", r, g, missing, sent)
			fail(rs.lost, "receiver %d stream %d: %d seqs reported through OnLost", r, g, rs.lost)
			fail(rs.dups, "receiver %d stream %d: %d seqs delivered twice", r, g, rs.dups)
			fail(rs.corrupt, "receiver %d stream %d: %d payloads differ from what was sent", r, g, rs.corrupt)
			fail(rs.overflow, "receiver %d stream %d: %d deliveries outside the sent range", r, g, rs.overflow)
		}
	}
	for i, in := range l.injectors {
		var open uint64
		for _, d := range in.drops {
			if !d.recovered {
				open++
			}
		}
		if open > 0 {
			rep.problems = append(rep.problems,
				fmt.Sprintf("injector %d: %d of %d dropped seqs never came back with Retransmitted set", i, open, len(in.drops)))
		}
	}
	if !l.drained {
		rep.problems = append(rep.problems, fmt.Sprintf("drain: receivers incomplete after %v", drainCap))
	}
}

func (res *windowResult) ledger() ledger {
	l := ledger{tx: res.s.tx, rx: res.s.rx, drained: res.drained}
	for _, ep := range res.s.receivers {
		for _, t := range ep.taps {
			if t.inject != nil {
				l.injectors = append(l.injectors, t.inject)
			}
		}
	}
	return l
}

func (res *windowResult) verdict(rep *report) { res.ledger().judge(rep) }

// recoveries returns the recovery latencies (ms) of every injected drop
// that came back, all together and by the path its repair took.
func (l ledger) recoveries() (all []float64, byPath [wire.NumRecoveryPaths][]float64) {
	for _, in := range l.injectors {
		for _, d := range in.drops {
			if d.recovered {
				ms := float64(d.latency) / 1e6
				all = append(all, ms)
				byPath[d.path] = append(byPath[d.path], ms)
			}
		}
	}
	return all, byPath
}
