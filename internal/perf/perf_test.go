package perf

import (
	"testing"

	"lbrm/internal/obs"
)

// TestDatapathZeroAlloc is the allocation gate: the steady-state
// data→log→ack pipeline of a secondary logger must not allocate — bare,
// and with a live observability sink attached (per-class tx counters,
// protocol counters, epoch gauge, and a flight-record emission per step
// all firing). Any regression — a timer re-wrap, a map that stopped being
// pooled, an escape-analysis break, a metric that allocates — fails this
// test, not just a benchmark report.
func TestDatapathZeroAlloc(t *testing.T) {
	if allocs := MeasureDatapathAllocs(5000, nil); allocs != 0 {
		t.Fatalf("steady-state datapath allocates %.2f allocs/op, want 0", allocs)
	}
	if allocs := MeasureDatapathAllocs(5000, obs.NewSink()); allocs != 0 {
		t.Fatalf("instrumented datapath allocates %.2f allocs/op, want 0", allocs)
	}
	if allocs := MeasureDatapathAllocsSampled(5000); allocs != 0 {
		t.Fatalf("datapath with live series sampler allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestSenderZeroAlloc is the source's allocation gate: a warmed Send plus
// the SourceAck that releases it must not allocate — bare, with a live
// observability sink, and with an inline heartbeat (InlineHeartbeatMax
// set) firing between the two and reading its payload out of the
// retention ring. Retention reuses its slots (DESIGN.md §6), so a per-PDU
// copy, packet escape or ack-side walk that comes back fails here.
func TestSenderZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sink   *obs.Sink
		inline bool
	}{
		{"bare", nil, false},
		{"obs", obs.NewSink(), false},
		{"inline-heartbeat", nil, true},
	} {
		if allocs := MeasureSenderAllocs(5000, tc.sink, tc.inline); allocs != 0 {
			t.Errorf("%s: steady-state Send+SourceAck allocates %.2f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestRecoveryZeroAlloc pins the end-to-end recovery episode — gap
// detect, NACK arm/fire, request decode, retransmit lookup, redelivery —
// at zero steady-state allocations. It guards the episode pools (reqCount
// recycling, persistent nack/retry timers, decoder Ranges reuse, scratch
// slices) the same way TestDatapathZeroAlloc guards the logging pipeline.
func TestRecoveryZeroAlloc(t *testing.T) {
	if allocs := MeasureRecoveryAllocs(2000); allocs != 0 {
		t.Fatalf("steady-state recovery episode allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestQuorumHopZeroAlloc pins the quorum-mode ring revolution — token
// launch at the primary, payload apply + watermark append at each replica
// hop, and the return fold with the quorum-gated source ack — at zero
// steady-state allocations, bare and fully instrumented. Quorum mode's
// bookkeeping must ride the existing zero-allocation logger hot path.
func TestQuorumHopZeroAlloc(t *testing.T) {
	if allocs := MeasureQuorumHopAllocs(2000, nil); allocs != 0 {
		t.Fatalf("steady-state ring revolution allocates %.2f allocs/op, want 0", allocs)
	}
	if allocs := MeasureQuorumHopAllocs(2000, obs.NewSink()); allocs != 0 {
		t.Fatalf("instrumented ring revolution allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestSimZeroAlloc pins the simulator's per-packet path — a bulk
// multicast to a site, an intra-island unicast over a duplicating host
// link, a cross-island unicast and a cross-island multicast, each through
// scheduling, link traversal, the island barrier and delivery — at zero
// steady-state allocations beyond the one copy of each multicast source
// packet. The engine recycles every per-packet record and buffer
// (DESIGN.md §14); a closure, path slice, payload copy or boxed address
// that comes back per packet, or per bulk group or duplicate copy, fails
// here: the mean is counted unrounded, so one malloc every hundred steps
// is enough.
func TestSimZeroAlloc(t *testing.T) {
	const mcastCopies = 1 // one multicast source packet per step
	allocs := MeasureSimAllocs(2000)
	t.Logf("%.4f mallocs/op, %d of them the multicast copy", allocs, mcastCopies)
	if extra := allocs - mcastCopies; extra >= 0.01 {
		t.Fatalf("steady-state simulator step allocates %.4f mallocs/op beyond its %d multicast copy, want < 0.01",
			extra, mcastCopies)
	}
}

// TestUDPLoopbackZeroAlloc pins the real-socket round-trip — egress
// coalescing, sendmmsg/GSO flush, recvmmsg dispatch with address
// interning — at zero steady-state allocations, on the batched path and
// on the forced portable fallback (the path every non-Linux build runs).
func TestUDPLoopbackZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fallback bool
	}{{"batched", false}, {"fallback", true}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := MeasureUDPLoopbackAllocs(1000, tc.fallback)
			if allocs < 0 {
				t.Skip("udp unavailable")
			}
			if allocs != 0 {
				t.Fatalf("steady-state loopback round-trip allocates %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

func BenchmarkStorePut(b *testing.B)           { StorePut(b) }
func BenchmarkStorePutUnbounded(b *testing.B)  { StorePutUnbounded(b) }
func BenchmarkStoreGet(b *testing.B)           { StoreGet(b) }
func BenchmarkStoreEvictByBytes(b *testing.B)  { StoreEvictByBytes(b) }
func BenchmarkStoreMissingSteady(b *testing.B) { StoreMissingSteady(b) }
func BenchmarkDatapathAllocs(b *testing.B)     { DatapathAllocs(b) }
func BenchmarkDatapathAllocsObs(b *testing.B)  { DatapathAllocsObs(b) }
func BenchmarkObsCounterInc(b *testing.B)      { ObsCounterInc(b) }
func BenchmarkObsClassRecord(b *testing.B)     { ObsClassRecord(b) }
func BenchmarkObsTraceEmit(b *testing.B)       { ObsTraceEmit(b) }
func BenchmarkObsFlightEmit(b *testing.B)      { ObsFlightEmit(b) }
func BenchmarkSeriesSample(b *testing.B)       { SeriesSample(b) }
func BenchmarkRecoveryRTT(b *testing.B)        { RecoveryRTT(b) }
func BenchmarkUDPLoopback(b *testing.B)        { UDPLoopback(b) }
func BenchmarkUDPEgress(b *testing.B)          { UDPEgress(b) }
func BenchmarkUDPEgressFallback(b *testing.B)  { UDPEgressFallback(b) }
func BenchmarkUDPEgressB1(b *testing.B)        { udpEgressB(1)(b) }
func BenchmarkUDPEgressB8(b *testing.B)        { udpEgressB(8)(b) }
func BenchmarkUDPEgressB64(b *testing.B)       { udpEgressB(64)(b) }
func BenchmarkShardedEgress(b *testing.B)      { ShardedEgress(b) }
