package main

import (
	"time"

	"lbrm/internal/logger"
	"lbrm/internal/seqtrack"
	"lbrm/internal/wire"
)

// The replay stage times the inner layers from outside: the datagrams a
// traced run captured at the taps go back through each layer's public
// functions, in the order and mix the stack really saw them. Every pass
// runs over the whole capture as one timed block (a clock reading costs
// more than the operations being timed) and is repeated until it has run
// for replayFloor; the fastest pass is reported, the usual way to strip
// scheduling noise from a micro-measurement.
const (
	replayFloor     = 100 * time.Millisecond
	replayMinPasses = 5
)

// replaySink keeps the compiler from discarding a replayed read.
var replaySink int

// fastest returns the shortest duration of pass over enough repetitions.
// setup runs before every pass, untimed.
func fastest(setup, pass func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	var total time.Duration
	for i := 0; i < replayMinPasses || total < replayFloor; i++ {
		setup()
		start := time.Now()
		pass()
		d := time.Since(start)
		total += d
		if d < best {
			best = d
		}
	}
	return best
}

// firstTracer returns the first shard's tracer of an endpoint.
func (e *endpoint) firstTracer() *tracer { return e.taps[0].tr }

// replay adds the wire, seqtrack and logger.Store metrics.
func (s *stack) replay(rep *report) {
	s.replayWire(rep)
	s.replaySeqtrack(rep)
	s.replayStore(rep)
}

// replayWire decodes every datagram the first receiver and the secondary
// saw (data, repairs, heartbeats, NACKs in their real proportions) and
// re-encodes the decoded packets.
func (s *stack) replayWire(rep *report) {
	var grams [][]byte
	for _, ep := range []*endpoint{s.receivers[0], s.secondary} {
		ep.firstTracer().captured(func(data []byte) { grams = append(grams, data) })
	}
	if len(grams) == 0 {
		return
	}
	var dec wire.Decoder
	var p wire.Packet
	decode := fastest(func() {}, func() {
		for _, g := range grams {
			if dec.Unmarshal(g, &p) != nil {
				panic("bench: a captured datagram no longer decodes")
			}
		}
	})
	pkts := make([]wire.Packet, len(grams))
	for i, g := range grams {
		if err := pkts[i].Unmarshal(g); err != nil { // own Ranges storage per packet
			panic("bench: a captured datagram no longer decodes")
		}
	}
	var buf []byte
	encode := fastest(func() {}, func() {
		for i := range pkts {
			var err error
			if buf, err = pkts[i].AppendMarshal(buf[:0]); err != nil {
				panic("bench: a decoded packet no longer encodes: " + err.Error())
			}
		}
	})
	n := uint64(len(grams))
	rep.add("wire.unmarshal_ns_per_pkt", per(int64(decode), n), n)
	rep.add("wire.marshal_ns_per_pkt", per(int64(encode), n), n)
}

// arrival is one data-bearing datagram as a handler saw it.
type arrival struct {
	group wire.GroupID
	seq   uint64
}

// replaySeqtrack marks the first receiver's arrival order (after the
// injector, repairs included) into fresh trackers. Gap computation is
// timed as the difference between a pass that also asks for the missing
// ranges whenever a hole is open — what the receiver does on every
// arrival — and a pass that only marks.
func (s *stack) replaySeqtrack(rep *report) {
	var arrivals []arrival
	var p wire.Packet
	s.receivers[0].firstTracer().captured(func(data []byte) {
		if p.Unmarshal(data) == nil && (p.Type == wire.TypeData || p.Type == wire.TypeRetrans) {
			arrivals = append(arrivals, arrival{p.Group, p.Seq})
		}
	})
	if len(arrivals) == 0 {
		return
	}
	// Trackers and stores are indexed by group (small dense integers), so
	// a timed pass pays an index, not a map lookup, per packet.
	trackers := make([]*seqtrack.Tracker, len(s.tx)+1)
	reset := func() {
		clear(trackers)
		for _, a := range arrivals {
			if trackers[a.group] == nil { // late join at the first captured seq, as the receiver does
				trackers[a.group] = &seqtrack.Tracker{}
				trackers[a.group].SetBase(a.seq - 1)
			}
		}
	}
	markOnly := fastest(reset, func() {
		for _, a := range arrivals {
			trackers[a.group].Mark(a.seq)
		}
	})
	var scratch []wire.SeqRange
	var gaps uint64
	withMissing := fastest(reset, func() {
		gaps = 0
		for _, a := range arrivals {
			t := trackers[a.group]
			before := t.Highest()
			t.Mark(a.seq)
			if a.seq > before+1 {
				gaps++
			}
			if t.Highest() > t.Contiguous() {
				scratch = t.AppendMissing(scratch[:0], 0, wire.MaxNackRanges)
			}
		}
	})
	n := uint64(len(arrivals))
	rep.add("seqtrack.mark_ns_per_pkt", per(int64(markOnly), n), n)
	if rep.produces("seqtrack.missing_ns_per_gap") && gaps > 0 && withMissing > markOnly {
		rep.add("seqtrack.missing_ns_per_gap", per(int64(withMissing-markOnly), gaps), gaps)
	}
}

// replayStore puts the secondary's captured data packets into fresh
// stores with the run's retention, then reads back every NACKed seq the
// stores still hold.
func (s *stack) replayStore(rep *report) {
	type put struct {
		arrival
		payload []byte
	}
	var puts []put
	var nacked []arrival
	var dec wire.Decoder
	var p wire.Packet
	s.secondary.firstTracer().captured(func(data []byte) {
		if dec.Unmarshal(data, &p) != nil {
			return
		}
		switch p.Type {
		case wire.TypeData, wire.TypeRetrans:
			puts = append(puts, put{arrival{p.Group, p.Seq}, p.Payload})
		case wire.TypeNack:
			for _, r := range p.Ranges {
				for seq := r.From; seq <= r.To; seq++ {
					nacked = append(nacked, arrival{p.Group, seq})
				}
			}
		}
	})
	if len(puts) == 0 {
		return
	}
	stores := make([]*logger.Store, len(s.tx)+1)
	now := time.Now()
	reset := func() {
		clear(stores)
		for _, pt := range puts {
			if stores[pt.group] == nil { // the secondary's own late join: log from the first packet seen
				stores[pt.group] = logger.NewStore(logger.Retention{MaxPackets: retentionPackets})
				stores[pt.group].SetBase(pt.seq - 1)
			}
		}
	}
	putAll := fastest(reset, func() {
		for _, pt := range puts {
			stores[pt.group].Put(pt.seq, pt.payload, now)
		}
	})
	n := uint64(len(puts))
	rep.add("logger.store.put_ns_per_pkt", per(int64(putAll), n), n)

	if !rep.produces("logger.store.get_ns_per_hit") {
		return
	}
	var held []arrival
	for _, a := range nacked {
		if st := stores[a.group]; st != nil && st.Has(a.seq) {
			held = append(held, a)
		}
	}
	if len(held) == 0 {
		return
	}
	getAll := fastest(func() {}, func() {
		for _, a := range held {
			b, _ := stores[a.group].Get(a.seq)
			replaySink += len(b)
		}
	})
	rep.add("logger.store.get_ns_per_hit", per(int64(getAll), uint64(len(held))), uint64(len(held)))
}
