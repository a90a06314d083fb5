package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/perf"
	"lbrm/internal/wire"
)

const (
	// tracedClosedLoopRate is the PDU rate per node a closed loop's span
	// buffers are sized for (32 B a span, touched only as spans are
	// written). A full buffer ends the traced window early.
	tracedClosedLoopRate = 50_000
	// traceArenaBytes caps one node's datagram capture; the replay stage
	// needs a sample, not the whole window.
	traceArenaBytes = 4 << 20
)

// nodeCounters is the udp.Nodes' own obs tracks, summed over the stack.
type nodeCounters struct {
	txPkts, txGSOSegs    uint64
	txBatchSum, txBatchN uint64
	rxBatchSum, rxBatchN uint64
}

// nodeCounters reads every node's tracks (zero when no node sink is
// armed). It allocates, so it runs outside the process-cost samples.
func (s *stack) nodeCounters() nodeCounters {
	snaps := make([]obs.Snapshot, len(s.all))
	for i, ep := range s.all {
		snaps[i] = ep.sink.Registry().Snapshot() // nil-safe: an unarmed sink snapshots empty
	}
	all := obs.Merge(snaps...)
	var c nodeCounters
	for name, v := range all.Counters {
		switch {
		case strings.HasPrefix(name, "udp") && strings.HasSuffix(name, ".tx_pkts"):
			c.txPkts += v
		case strings.HasSuffix(name, ".tx_gso_segs"):
			c.txGSOSegs += v
		}
	}
	for name, h := range all.Histograms {
		switch {
		case strings.HasSuffix(name, ".tx_batch"):
			c.txBatchSum, c.txBatchN = c.txBatchSum+h.Sum, c.txBatchN+h.Total()
		case strings.HasSuffix(name, ".rx_batch"):
			c.rxBatchSum, c.rxBatchN = c.rxBatchSum+h.Sum, c.rxBatchN+h.Total()
		}
	}
	return c
}

// since returns the tracks' growth from an earlier reading.
func (c nodeCounters) since(b nodeCounters) nodeCounters {
	return nodeCounters{
		txPkts: c.txPkts - b.txPkts, txGSOSegs: c.txGSOSegs - b.txGSOSegs,
		txBatchSum: c.txBatchSum - b.txBatchSum, txBatchN: c.txBatchN - b.txBatchN,
		rxBatchSum: c.rxBatchSum - b.rxBatchSum, rxBatchN: c.rxBatchN - b.rxBatchN,
	}
}

// per divides a total by a count (0 when nothing was counted).
func per[T int64 | uint64](total T, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// addUntraced records what the untraced window yields beyond the process
// metrics: latencies from the sample histograms, recoveries from the
// injectors' records, and ratios from the protocol objects' own counters.
func (res *windowResult) addUntraced(rep *report) {
	s := res.s
	var deliver, ack histogram
	var stray uint64
	for _, streams := range s.rx {
		for _, rs := range streams {
			deliver.merge(&rs.lat)
			stray += rs.stray
		}
	}
	if stray > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf(
			"%d deliveries were repairs of seqs the injector never dropped (lost in the kernel, recovered by the protocol)", stray))
	}
	if s.capped {
		rep.notes = append(rep.notes, fmt.Sprintf(
			"the closed loop stopped %v into the window: a stream reached its bitmap capacity (the box outran %d PDU/s)",
			res.proc.wall.Round(time.Millisecond), closedLoopMaxRate))
	}
	retainedMax := 0
	for _, t := range s.tx {
		ack.merge(&t.ackLat)
		if t.retainedMax > retainedMax {
			retainedMax = t.retainedMax
		}
	}
	rep.add("harness.deliver_latency_p50_us", deliver.quantile(0.50)/1e3, deliver.n)
	rep.add("lat.deliver_p99_us", deliver.quantile(0.99)/1e3, deliver.n)
	rep.add("lat.deliver_p999_us", deliver.quantile(0.999)/1e3, deliver.n)
	rep.add("harness.ack_latency_p50_us", ack.quantile(0.50)/1e3, ack.n)
	rep.add("lat.ack_p99_us", ack.quantile(0.99)/1e3, ack.n)
	if s.w.perFrame > 0 {
		rep.add("gen.late_p50_us", s.late.quantile(0.50)/1e3, s.late.n)
		rep.add("gen.late_p99_us", s.late.quantile(0.99)/1e3, s.late.n)
	}

	var sent, hbs, logged, acks, nacked, delivered, dupRx, nacksSent, gaps uint64
	for i := range s.tx {
		sent += res.after.sender[i].DataSent - res.before.sender[i].DataSent
		hbs += res.after.sender[i].HeartbeatsSent - res.before.sender[i].HeartbeatsSent
		logged += res.after.primary[i].PacketsLogged - res.before.primary[i].PacketsLogged
		acks += res.after.primary[i].SourceAcks - res.before.primary[i].SourceAcks
		nacked += res.after.secondary[i].SeqsRequested - res.before.secondary[i].SeqsRequested
	}
	for r := range s.rcvs {
		for i := range s.rcvs[r] {
			a, b := res.after.receiver[r][i], res.before.receiver[r][i]
			delivered += a.DataDelivered - b.DataDelivered
			dupRx += a.Duplicates - b.Duplicates
			nacksSent += a.NacksSent - b.NacksSent
			gaps += a.GapsDetected - b.GapsDetected
		}
	}
	rep.add("core.sender.retained_max", float64(retainedMax), sent)
	rep.add("core.sender.heartbeats_per_s", float64(hbs)/res.proc.wall.Seconds(), hbs)
	rep.add("logger.primary.acks_per_pkt", per(acks, logged), logged)
	rep.add("core.receiver.dup_rx_per_delivery", per(dupRx, delivered), delivered)

	if s.w.single == nil && s.w.site == nil {
		return
	}
	all, byPath := res.ledger().recoveries()
	if len(all) > 0 {
		rep.add("harness.recovery_latency_p50_ms", quantileOf(all, 0.50), uint64(len(all)))
		rep.add("harness.recovery_latency_p95_ms", quantileOf(all, 0.95), uint64(len(all)))
	}
	for p := wire.PathLocal; p < wire.NumRecoveryPaths; p++ {
		n := uint64(len(byPath[p]))
		rep.add("recovery."+p.String()+".count", float64(n), n)
		// Only the two logger paths have a latency worth a name: the
		// source never re-multicasts here (no statistical ack).
		if name := "recovery." + p.String() + ".p50_ms"; rep.produces(name) && n > 0 {
			rep.add(name, quantileOf(byPath[p], 0.50), n)
		}
	}
	if gaps > 0 {
		rep.add("core.receiver.nacks_per_loss", per(nacksSent, gaps), gaps)
	}
	if nacked > 0 {
		rep.add("logger.secondary.local_hit_ratio", per(uint64(len(byPath[wire.PathLocal])), nacked), nacked)
	}
}

// layerSums is one node's span time, reduced and bucketed.
type layerSums struct {
	handlerSelf, harnessSelf int64 // ns
	envDur                   int64
	envCalls                 uint64
	muxSelf                  int64
	muxCount                 uint64
	nackSelf                 int64 // handler self time on NACK datagrams
	nackCount                uint64
	dataRecv                 uint64 // handler Recv spans on first-transmission DATA
	sendCalls                uint64
}

func (ls *layerSums) add(o layerSums) {
	ls.handlerSelf += o.handlerSelf
	ls.harnessSelf += o.harnessSelf
	ls.envDur += o.envDur
	ls.envCalls += o.envCalls
	ls.muxSelf += o.muxSelf
	ls.muxCount += o.muxCount
	ls.nackSelf += o.nackSelf
	ls.nackCount += o.nackCount
	ls.dataRecv += o.dataRecv
	ls.sendCalls += o.sendCalls
}

// sumSpans reduces one tracer's spans that started before the window
// closed (the tracer was reset when it opened; the drain is not counted).
func sumSpans(tr *tracer, windowEnd int64) (layerSums, error) {
	var ls layerSums
	self, err := reduceSelf(tr.spans)
	if err != nil {
		return ls, fmt.Errorf("%s: %w", tr.role, err)
	}
	for i, sp := range tr.spans {
		if sp.start >= windowEnd {
			continue
		}
		switch {
		case sp.kind.harness():
			ls.harnessSelf += self[i]
		case sp.kind.handler():
			ls.handlerSelf += self[i]
		default:
			ls.envDur += sp.dur
			ls.envCalls++
		}
		switch sp.kind {
		case spanMux:
			ls.muxSelf += self[i]
			ls.muxCount++
		case spanRecv:
			switch sp.ptype {
			case wire.TypeNack:
				ls.nackSelf += self[i]
				ls.nackCount++
			case wire.TypeData:
				ls.dataRecv++
			}
		case spanSendCall:
			ls.sendCalls++
		}
	}
	return ls, nil
}

// addTraced records the per-layer metrics of the traced window: span self
// times, the node's batch tracks, the replay of captured traffic through
// each inner layer, and the micro-benchmarks that anchor the yardsticks.
// untraced is the same run's untraced window, the base of the overhead
// and ceiling ratios.
func (res *windowResult) addTraced(rep *report, untraced *windowResult) error {
	s := res.s
	var total layerSums
	byRole := map[string]*layerSums{}
	for _, ep := range s.all {
		role := strings.TrimRight(ep.role, "0123456789")
		if byRole[role] == nil {
			byRole[role] = &layerSums{}
		}
		for _, t := range ep.taps {
			ls, err := sumSpans(t.tr, res.end)
			if err != nil {
				return err
			}
			total.add(ls)
			byRole[role].add(ls)
		}
	}
	pri, sec, snd, rcv := byRole["primary"], byRole["secondary"], byRole["sender"], byRole["receiver"]
	rep.add("logger.primary.self_ns_per_pkt", per(pri.handlerSelf, pri.dataRecv), pri.dataRecv)
	rep.add("logger.secondary.self_ns_per_pkt", per(sec.handlerSelf-sec.nackSelf, sec.dataRecv), sec.dataRecv)
	if sec.nackCount > 0 {
		rep.add("logger.secondary.serve_self_ns_per_nack", per(sec.nackSelf, sec.nackCount), sec.nackCount)
	}
	rep.add("core.sender.self_ns_per_pkt", per(snd.handlerSelf, snd.sendCalls), snd.sendCalls)
	rep.add("core.receiver.self_ns_per_delivery", per(rcv.handlerSelf, res.deliveries), res.deliveries)
	if total.muxCount > 0 {
		rep.add("shard.mux.self_ns_per_pkt", per(total.muxSelf, total.muxCount), total.muxCount)
	}
	rep.add("transport.udp.send_call_ns", per(total.envDur, total.envCalls), total.envCalls)

	nc := res.nodesAt[1].since(res.nodesAt[0])
	rep.add("transport.udp.tx_pkts_per_delivery", per(nc.txPkts, res.deliveries), res.deliveries)
	rep.add("transport.udp.tx_batch_mean", per(nc.txBatchSum, nc.txBatchN), nc.txBatchN)
	rep.add("transport.udp.rx_batch_mean", per(nc.rxBatchSum, nc.rxBatchN), nc.rxBatchN)
	rep.add("transport.udp.gso_seg_share", per(nc.txGSOSegs, nc.txPkts), nc.txPkts)

	// Table 3's "network + OS": what is left of the process's CPU once the
	// handlers' and the harness's own time is taken out — syscalls, the
	// kernel's loopback path, the runtime's scheduling and GC.
	tracedCPU := float64(res.proc.cpu) / 1e3 / float64(res.deliveries)
	residual := float64(int64(res.proc.cpu)-total.handlerSelf-total.harnessSelf) / 1e3 / float64(res.deliveries)
	rep.add("transport.udp.residual_cpu_us_per_delivery", residual, res.deliveries)
	// Overhead compares like with like: both windows' median slice.
	_, tracedMedian, _, _ := sliceMedians(s.points)
	_, untracedMedian, _, _ := sliceMedians(untraced.s.points)
	rep.add("trace.overhead_pct", (tracedMedian/untracedMedian-1)*100, res.deliveries)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"traced window: cpu %.3f us/delivery = handlers %.3f + harness %.3f + residual %.3f",
		tracedCPU, float64(total.handlerSelf)/1e3/float64(res.deliveries),
		float64(total.harnessSelf)/1e3/float64(res.deliveries), residual))

	s.replay(rep)

	if rep.workload == wlSat {
		ceiling := testing.Benchmark(perf.UDPEgress).Extra["pps"]
		if ceiling > 0 {
			perSecond, _ := rep.get("harness.delivered_per_s")
			rep.add("transport.udp.flood_ceiling_pps", ceiling, 1)
			rep.add("stack.ceiling_fraction", perSecond.value/ceiling, 1)
		}
	}
	if s.w.obs {
		bare := testing.Benchmark(perf.DatapathAllocs)
		armed := testing.Benchmark(perf.DatapathAllocsObs)
		if bare.N > 0 && armed.N > 0 {
			nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
			rep.add("obs.datapath_overhead_ns", nsPerOp(armed)-nsPerOp(bare), uint64(armed.N))
		}
	}
	return nil
}

// writeTrace writes every node's spans as JSONL.
func (s *stack) writeTrace(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write trace: %w", cerr)
		}
	}()
	var tracers []*tracer
	for _, ep := range s.all {
		for _, t := range ep.taps {
			tracers = append(tracers, t.tr)
		}
	}
	return writeJSONL(f, tracers)
}
