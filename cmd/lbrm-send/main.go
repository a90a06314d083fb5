// Command lbrm-send is an LBRM multicast source over real UDP. It reads
// lines from stdin (or generates synthetic updates with -interval) and
// publishes each as one LBRM data packet, with variable heartbeats filling
// the idle periods.
//
// With -groups N it runs one source per group on consecutive ports from
// -mcast, striping updates round-robin — a load generator for sharded
// deployments; -shards splits the groups across independent datapath
// shards, and -batch sizes the sendmmsg egress rings.
//
// Example (three terminals):
//
//	lbrm-logger -mode primary -listen :7001 -mcast 239.9.9.9:7000
//	lbrm-recv   -mcast 239.9.9.9:7000 -primary 127.0.0.1:7001
//	lbrm-send   -mcast 239.9.9.9:7000 -primary 127.0.0.1:7001
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"lbrm"
	"lbrm/internal/obs"
	"lbrm/internal/obs/fleet"
	"lbrm/internal/shard"
	"lbrm/internal/transport"
	"lbrm/internal/transport/udp"
	"lbrm/internal/wire"
)

// serveMetrics exposes the daemon's observability control plane over
// HTTP: golden exposition at /metrics (?format=json for the JSON
// document), Prometheus text at /metrics/prom, Go runtime health at
// /metrics/runtime, the health/SLO engine at /metrics/health, windowed
// series at /metrics/series, and the standard pprof profiling endpoints
// under /debug/pprof/. It also starts the wall-clock series sampler
// driving the local health engine (DESIGN.md §15).
func serveMetrics(addr, cmd string, sink *obs.Sink) {
	node := fleet.NewNode(sink, 2*time.Second)
	node.Start()
	mux := node.Mux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("%s: metrics server: %v", cmd, err)
		}
	}()
	log.Printf("%s: metrics on http://%s/metrics (prom at /metrics/prom, health at /metrics/health, profiles at /debug/pprof/)", cmd, addr)
}

func main() {
	mcast := flag.String("mcast", "239.9.9.9:7000", "multicast base ip:port (group i uses port+i-1)")
	primary := flag.String("primary", "", "primary logger host:port (empty = basic receiver-reliable mode)")
	source := flag.Uint64("source", 1, "source/stream id")
	hmin := flag.Duration("hmin", 250*time.Millisecond, "minimum heartbeat interval (MaxIT)")
	hmax := flag.Duration("hmax", 32*time.Second, "maximum heartbeat interval")
	backoff := flag.Float64("backoff", 2, "heartbeat backoff multiple")
	interval := flag.Duration("interval", 0, "auto-send synthetic updates at this interval (0 = read stdin)")
	statack := flag.Bool("statack", false, "enable statistical acknowledgement")
	k := flag.Int("k", 20, "desired ACKs per packet (with -statack)")
	iface := flag.String("iface", "", "network interface for multicast")
	metricsAddr := flag.String("metrics-addr", "", "serve the metrics/trace exposition over HTTP on this host:port")
	nGroups := flag.Int("groups", 1, "number of multicast groups published (consecutive ports from -mcast), striped round-robin")
	shards := flag.Int("shards", 1, "datapath shards; groups are spread across shards by stable modulus")
	batch := flag.Int("batch", 0, "datagrams per socket syscall (0 = default ring, 1 = unbatched)")
	flag.Parse()
	if err := shard.ValidateCounts(*nGroups, *shards, *batch); err != nil {
		log.Fatalf("lbrm-send: %v", err)
	}

	var sink *obs.Sink
	if *metricsAddr != "" {
		sink = obs.NewSink()
	}
	groups, err := shard.GroupSpecs(*mcast, *nGroups)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > *nGroups {
		log.Printf("lbrm-send: clamping -shards %d to -groups %d", *shards, *nGroups)
		*shards = *nGroups
	}
	var priAddr transport.Addr
	if *primary != "" {
		if priAddr, err = udp.ParseAddr(*primary); err != nil {
			log.Fatalf("bad -primary: %v", err)
		}
	}

	senders := make(map[lbrm.GroupID]*lbrm.Sender, *nGroups)
	mk := func(g lbrm.GroupID) *lbrm.Sender {
		cfg := lbrm.SenderConfig{
			Source:    lbrm.SourceID(*source),
			Group:     g,
			Heartbeat: lbrm.HeartbeatParams{HMin: *hmin, HMax: *hmax, Backoff: *backoff},
			Primary:   priAddr,
			Obs:       sink,
		}
		if *statack {
			cfg.StatAck = lbrm.StatAckConfig{Enabled: true, K: *k}
		}
		snd, err := lbrm.NewSender(cfg)
		if err != nil {
			log.Fatal(err)
		}
		senders[g] = snd
		return snd
	}

	fleet, err := shard.Start(shard.Config{
		Shards: *shards,
		Groups: groups,
		Node: udp.Config{
			Interface: *iface,
			Obs:       sink,
			Batch:     *batch,
		},
	}, func(s int, gs []wire.GroupID) transport.Handler {
		hs := make(map[wire.GroupID]transport.Handler, len(gs))
		for _, g := range gs {
			hs[g] = mk(g)
		}
		if len(gs) == 1 {
			return hs[gs[0]]
		}
		return shard.NewMux(hs, nil)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	for s := 0; s < fleet.Shards(); s++ {
		log.Printf("lbrm-send: source %d, shard %d/%d from %s",
			*source, s, fleet.Shards(), fleet.Node(s).Addr())
	}
	if *metricsAddr != "" {
		serveMetrics(*metricsAddr, "lbrm-send", sink)
	}

	next := 0
	send := func(payload []byte) {
		// Stripe across groups; serialize with the owning shard's
		// packet/timer callbacks.
		g := lbrm.GroupID(next%*nGroups + 1)
		next++
		snd := senders[g]
		fleet.Do(g, func() {
			seq, err := snd.Send(payload)
			if err != nil {
				log.Printf("send g%d: %v", g, err)
				return
			}
			log.Printf("sent g%d seq %d (%d bytes), retained=%d", g, seq, len(payload), snd.Retained())
		})
	}

	if *interval > 0 {
		for i := 1; ; i++ {
			send([]byte(fmt.Sprintf("update %d at %s", i, time.Now().Format(time.RFC3339Nano))))
			time.Sleep(*interval)
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		send(sc.Bytes()) // Send copies before it returns
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
