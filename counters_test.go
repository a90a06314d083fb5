package lbrm_test

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lbrm"
	"lbrm/internal/core"
	"lbrm/internal/obs"
	"lbrm/internal/obs/series"
	"lbrm/internal/transport"
	"lbrm/internal/transport/udp"
	"lbrm/internal/wire"
)

// addTagged adds every obs-tagged word of a Stats() value into sums, keyed
// by the registry name the tag declares.
func addTagged(sums map[string]uint64, stats any) {
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("obs"); name != "" {
			sums[name] += v.Field(i).Uint()
		}
	}
}

// checkRegistry asserts that sink reports exactly sums for every name.
func checkRegistry(t *testing.T, sink *obs.Sink, sums map[string]uint64) {
	t.Helper()
	for name, want := range sums {
		if got := sink.Registry().Counter(name).Value(); got != want {
			t.Errorf("registry %s = %d, instances' Stats() sum to %d", name, got, want)
		}
	}
}

// TestSendErrorsReachTheRegistry: a sender whose logging service is not
// keeping up refuses Send with ErrRetainLimit; the operator must see that
// on /metrics, not only the caller in Stats().
func TestSendErrorsReachTheRegistry(t *testing.T) {
	sink := obs.NewSink()
	tb, err := lbrm.NewTestbed(lbrm.TestbedConfig{
		Seed: 1, Sites: 1, ReceiversPerSite: 1,
		Sender: lbrm.SenderConfig{Heartbeat: fastHB, RetainLimit: 4, Obs: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.PrimaryNode.Crash() // nothing acknowledges: retention only fills
	for i := 0; i < 7; i++ {
		_, err := tb.Send([]byte("x"))
		if want := i >= 4; errors.Is(err, core.ErrRetainLimit) != want {
			t.Fatalf("send %d: err = %v, want ErrRetainLimit: %v", i, err, want)
		}
	}
	inStats := tb.Sender.Stats().SendErrors
	onMetrics := sink.Registry().Counter("sender.send_errors").Value()
	if inStats != 3 || onMetrics != inStats {
		t.Fatalf("sender.send_errors = %d on the registry, Stats().SendErrors = %d, want 3 and 3", onMetrics, inStats)
	}
}

// sharedSinkTestbed runs two logging servers (primary + replica) on one
// sink and two receivers on another, with a lossy drop cable so recovery
// counters move too.
func sharedSinkTestbed(t *testing.T) (tb *lbrm.Testbed, logSink, rcvSink *obs.Sink, send func(n int)) {
	t.Helper()
	logSink, rcvSink = obs.NewSink(), obs.NewSink()
	tb, err := lbrm.NewTestbed(lbrm.TestbedConfig{
		Seed: 5, Sites: 1, ReceiversPerSite: 2, Replicas: 1,
		Sender:    lbrm.SenderConfig{Heartbeat: fastHB},
		Primary:   lbrm.PrimaryConfig{Obs: logSink},
		Secondary: lbrm.SecondaryConfig{NackDelay: 5 * time.Millisecond},
		Receiver:  lbrm.ReceiverConfig{NackDelay: 5 * time.Millisecond, Obs: rcvSink},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Sites[0].ReceiverNodes[0].DownLink().SetLoss(lbrm.Bernoulli{P: 0.3})
	send = func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tb.Send([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			tb.Run(20 * time.Millisecond)
		}
		tb.Run(2 * time.Second)
	}
	return tb, logSink, rcvSink, send
}

// TestSharedSinkCountersSumInstances: instances sharing a sink add up —
// every registry counter is the sum of the instances' Stats() words, and
// Stats() stays per instance.
func TestSharedSinkCountersSumInstances(t *testing.T) {
	tb, logSink, rcvSink, send := sharedSinkTestbed(t)
	send(60)

	logSums, rcvSums := map[string]uint64{}, map[string]uint64{}
	addTagged(logSums, tb.Primary.Stats())
	addTagged(logSums, tb.Replicas[0].Stats())
	for _, r := range tb.Sites[0].Receivers {
		addTagged(rcvSums, r.Stats())
	}
	checkRegistry(t, logSink, logSums)
	checkRegistry(t, rcvSink, rcvSums)

	lossy, clean := tb.Sites[0].Receivers[0].Stats(), tb.Sites[0].Receivers[1].Stats()
	if lossy.Recovered == 0 || clean.Recovered != 0 || lossy.DataDelivered != 60 || clean.DataDelivered != 60 {
		t.Fatalf("per-instance Stats() lost: lossy %+v, clean %+v", lossy, clean)
	}
	if rcvSums["recv.delivered"] != 120 || rcvSums["recv.nacks_sent"] == 0 {
		t.Fatalf("receiver sums = %v", rcvSums)
	}
	if p, r := tb.Primary.Stats(), tb.Replicas[0].Stats(); p.SourceAcks == 0 || r.SourceAcks != 0 || r.LogSyncsApplied == 0 {
		t.Fatalf("primary %+v and replica %+v should differ", p, r)
	}
}

// TestSuccessorKeepsRegistryCumulative: a stopped incarnation's totals stay
// in the registry, its successor on the same sink counts on top of them,
// and the successor's own Stats() starts from zero.
func TestSuccessorKeepsRegistryCumulative(t *testing.T) {
	tb, logSink, rcvSink, send := sharedSinkTestbed(t)
	send(30)
	site := tb.Sites[0]

	oldRcv, oldRep := site.Receivers[0], tb.Replicas[0]
	site.ReceiverNodes[0].Crash()
	tb.ReplicaNodes[0].Crash()
	oldRcv.Stop()
	oldRep.Stop()
	before := obs.Merge(logSink.Registry().Snapshot(), rcvSink.Registry().Snapshot()).Counters

	newRcv := lbrm.NewReceiver(site.ReceiverCfgs[0])
	newRep := lbrm.NewPrimaryLogger(tb.ReplicaCfgs[0])
	if newRcv.Stats() != (lbrm.ReceiverStats{}) || newRep.Stats() != (lbrm.PrimaryStats{}) {
		t.Fatalf("successor Stats() not zero: %+v / %+v", newRcv.Stats(), newRep.Stats())
	}
	after := obs.Merge(logSink.Registry().Snapshot(), rcvSink.Registry().Snapshot()).Counters
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("registry moved across stop + successor construction:\nbefore %v\nafter  %v", before, after)
	}
	site.ReceiverNodes[0].Restart(newRcv)
	tb.ReplicaNodes[0].Restart(newRep)
	send(30)

	logSums, rcvSums := map[string]uint64{}, map[string]uint64{}
	for _, s := range []lbrm.PrimaryStats{tb.Primary.Stats(), oldRep.Stats(), newRep.Stats()} {
		addTagged(logSums, s)
	}
	for _, s := range []lbrm.ReceiverStats{oldRcv.Stats(), newRcv.Stats(), site.Receivers[1].Stats()} {
		addTagged(rcvSums, s)
	}
	checkRegistry(t, logSink, logSums)
	checkRegistry(t, rcvSink, rcvSums)
	if newRcv.Stats().DataDelivered == 0 || oldRcv.Stats().DataDelivered != 30 {
		t.Fatalf("old receiver delivered %d (want 30), successor %d (want > 0)",
			oldRcv.Stats().DataDelivered, newRcv.Stats().DataDelivered)
	}
}

// envGrab is a handler that only captures its Env for external sends.
type envGrab struct{ env transport.Env }

func (g *envGrab) Start(env transport.Env)     { g.env = env }
func (g *envGrab) Recv(transport.Addr, []byte) {}

// TestRegistryReadsRaceFreeUnderUDPTraffic hosts a receiver on a real
// udp.Node and, while its read loop delivers traffic, snapshots the registry
// and runs the series sampler from other goroutines (run under -race by
// `make test`): the registry reads the very words the handler is adding to.
func TestRegistryReadsRaceFreeUnderUDPTraffic(t *testing.T) {
	sink := obs.NewSink()
	rcv := lbrm.NewReceiver(lbrm.ReceiverConfig{Group: 1, Heartbeat: fastHB, Obs: sink})
	rn, err := udp.Start(udp.Config{
		Listen: "127.0.0.1:0", Groups: map[wire.GroupID]string{1: "239.77.7.15:17015"},
	}, rcv)
	if err != nil {
		t.Skipf("udp multicast unavailable: %v", err)
	}
	defer rn.Close()
	src := &envGrab{}
	sn, err := udp.Start(udp.Config{Listen: "127.0.0.1:0"}, src)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer sn.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for last := uint64(0); ; {
			select {
			case <-done:
				return
			default:
			}
			v := sink.Registry().Snapshot().Counters["recv.delivered"]
			if v < last {
				t.Errorf("recv.delivered went backwards: %d after %d", v, last)
				return
			}
			last = v
		}
	}()
	go func() {
		defer wg.Done()
		smp := series.NewSampler(sink.Registry(), 64)
		for tick := int64(1); ; tick++ {
			select {
			case <-done:
				return
			default:
			}
			smp.Sample(tick)
		}
	}()

	const n = 2000
	var buf []byte
	for seq := uint64(1); seq <= n; seq++ {
		p := wire.Packet{Type: wire.TypeData, Source: 7, Group: 1, Seq: seq, Payload: []byte("x")}
		if buf, err = p.AppendMarshal(buf[:0]); err != nil {
			t.Fatal(err)
		}
		sn.Do(func() { err = src.env.Send(rn.Addr(), buf) })
		if err != nil {
			t.Fatal(err)
		}
		if seq%64 == 0 {
			time.Sleep(time.Millisecond) // stay inside the socket buffer
		}
	}
	var st lbrm.ReceiverStats
	var onRegistry uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		rn.Do(func() {
			st = rcv.Stats()
			onRegistry = sink.Registry().Counter("recv.delivered").Value()
		})
		if st.DataDelivered >= n*9/10 || time.Now().After(deadline) {
			break
		}
	}
	close(done)
	wg.Wait()
	if st.DataDelivered < n/2 || onRegistry != st.DataDelivered {
		t.Fatalf("delivered %d of %d, registry says %d", st.DataDelivered, n, onRegistry)
	}
}

// TestMetricNamesUnchanged compares every counter, gauge and histogram name
// each role registers at construction, as a set, with the list captured
// before the counters moved into the Stats structs: no name may be lost,
// renamed or added by changing where a counter is stored.
func TestMetricNamesUnchanged(t *testing.T) {
	roles := []struct {
		name  string
		build func(*obs.Sink) error
	}{
		{"sender", func(s *obs.Sink) error { _, err := lbrm.NewSender(lbrm.SenderConfig{Obs: s}); return err }},
		{"receiver", func(s *obs.Sink) error { lbrm.NewReceiver(lbrm.ReceiverConfig{Obs: s}); return nil }},
		{"primary", func(s *obs.Sink) error { lbrm.NewPrimaryLogger(lbrm.PrimaryConfig{Obs: s}); return nil }},
		{"secondary", func(s *obs.Sink) error { lbrm.NewSecondaryLogger(lbrm.SecondaryConfig{Obs: s}); return nil }},
	}
	var got []string
	for _, role := range roles {
		sink := obs.NewSink()
		if err := role.build(sink); err != nil {
			t.Fatal(err)
		}
		snap := sink.Registry().Snapshot()
		for n := range snap.Counters {
			got = append(got, role.name+" counter "+n)
		}
		for n := range snap.Gauges {
			got = append(got, role.name+" gauge "+n)
		}
		for n := range snap.Histograms {
			got = append(got, role.name+" histogram "+n)
		}
	}
	sort.Strings(got)

	f, err := os.Open("testdata/metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered metric names differ from testdata/metric_names.txt:\n%s", nameDiff(want, got))
	}
}

func nameDiff(want, got []string) string {
	in := func(list []string) map[string]bool {
		m := make(map[string]bool, len(list))
		for _, s := range list {
			m[s] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, s := range want {
		if !g[s] {
			fmt.Fprintf(&b, "  lost:  %s\n", s)
		}
	}
	for _, s := range got {
		if !w[s] {
			fmt.Fprintf(&b, "  added: %s\n", s)
		}
	}
	return b.String()
}
