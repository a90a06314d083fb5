// Package fleet assembles the observability control plane (DESIGN.md
// §15) from its parts: per-daemon wiring (sink + series sampler + health
// engine behind one HTTP mux) and the fleet scraper behind lbrm-top
// (poll every daemon's exposition endpoint, ingest snapshots into local
// series, evaluate fleet-wide health, serve a JSON control-plane API).
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/obs/health"
	"lbrm/internal/obs/series"
)

// SeriesCap is the per-sampler retained sample count: at the default 2s
// daemon cadence this holds ~8.5 minutes of history, comfortably above
// any rule window.
const SeriesCap = 256

// Node is one daemon's control-plane wiring: the series sampler over its
// sink and a single-entity health engine, both driven by one wall-clock
// loop, exposed on one mux.
type Node struct {
	sink    *obs.Sink
	sampler *series.Sampler
	engine  *health.Engine
	every   time.Duration
}

// NewNode wires a daemon sink. sampleEvery is the wall sampling/eval
// cadence (0 = 2s). The health engine reports into the same sink, so
// health.* gauges and alert trace events ride the normal exposition.
func NewNode(sink *obs.Sink, sampleEvery time.Duration) *Node {
	if sampleEvery <= 0 {
		sampleEvery = 2 * time.Second
	}
	cfg := health.Defaults()
	cfg.EvalEvery = sampleEvery
	eng := health.NewEngine(cfg, sink)
	smp := series.NewSampler(sink.Registry(), SeriesCap)
	// One entity: a daemon only sees itself, so the relative crying-baby
	// rule stays silent locally (it needs fleet context — lbrm-top has
	// it); the absolute rules (SLO, storm, ring stall) still apply.
	eng.AddEntity("self", true, smp)
	return &Node{sink: sink, sampler: smp, engine: eng, every: sampleEvery}
}

// Sampler returns the node's series sampler.
func (n *Node) Sampler() *series.Sampler { return n.sampler }

// Engine returns the node's health engine.
func (n *Node) Engine() *health.Engine { return n.engine }

// Start launches the wall-clock loop: fold runtime gauges into the
// registry, sample the series, evaluate health. Stop with Stop.
func (n *Node) Start() {
	reg := n.sink.Registry()
	n.sampler.StartWall(n.every, func() { obs.SampleRuntime(reg) })
	// Health evaluation rides its own ticker so an Eval slow path can
	// never delay the sampler's zero-alloc cadence.
	go func() {
		tick := time.NewTicker(n.every)
		defer tick.Stop()
		for now := range tick.C {
			if n.sampler.Len() == 0 { // stopped sampler: exit with it
				return
			}
			n.engine.Eval(now.UnixNano())
		}
	}()
}

// Stop halts the wall-clock sampler (the eval loop drains on its own).
func (n *Node) Stop() { n.sampler.StopWall() }

// Mux returns the daemon exposition mux: the golden format at /metrics,
// Prometheus text at /metrics/prom, runtime gauges at /metrics/runtime,
// health state at /metrics/health, and series summaries at
// /metrics/series. Callers add pprof themselves.
func (n *Node) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(n.sink))
	mux.Handle("/metrics/prom", obs.PromHandler(n.sink))
	mux.Handle("/metrics/runtime", obs.RuntimeHandler())
	mux.Handle("/metrics/health", HealthHandler(n.engine))
	mux.Handle("/metrics/series", SeriesHandler(n.sampler))
	return mux
}

// healthDoc is the /metrics/health JSON document.
type healthDoc struct {
	// DetectionBoundNs is the engine's documented worst-case detection
	// latency (see health.Config.DetectionBound).
	DetectionBoundNs int64          `json:"detection_bound_ns"`
	Entities         []string       `json:"entities"`
	Active           []health.Alert `json:"active"`
	History          []health.Alert `json:"history"`
}

// HealthHandler serves the engine's alert state as JSON (GET only).
func HealthHandler(e *health.Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.JSONContentType)
		if r.Method == http.MethodHead {
			return
		}
		doc := healthDoc{
			DetectionBoundNs: int64(e.Config().DetectionBound()),
			Entities:         e.Entities(),
			Active:           e.Active(),
			History:          e.History(),
		}
		if doc.Active == nil {
			doc.Active = []health.Alert{}
		}
		if doc.History == nil {
			doc.History = []health.Alert{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// seriesEntry is one metric's windowed summary in /metrics/series.
type seriesEntry struct {
	Name string `json:"name"`
	// Last is the newest sampled value (counters and gauges).
	Last *int64 `json:"last,omitempty"`
	// Rate1m is the per-second rate over the trailing minute.
	Rate1m *float64 `json:"rate_1m,omitempty"`
	// P50/P99 are windowed histogram quantiles over the trailing minute.
	P50 *float64 `json:"p50_1m,omitempty"`
	P99 *float64 `json:"p99_1m,omitempty"`
}

// SeriesHandler serves a windowed per-metric summary as JSON (GET only):
// the quick "what is trending" view lbrm-top and humans share.
func SeriesHandler(s *series.Sampler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.JSONContentType)
		if r.Method == http.MethodHead {
			return
		}
		const window = time.Minute
		entries := make([]seriesEntry, 0, 64)
		for _, name := range s.Names() {
			e := seriesEntry{Name: name}
			if v, ok := s.Last(name); ok {
				e.Last = &v
			}
			if rate, ok := s.Rate(name, window); ok {
				e.Rate1m = &rate
			}
			if q, ok := s.Quantile(name, 0.50, window); ok {
				e.P50 = &q
			}
			if q, ok := s.Quantile(name, 0.99, window); ok {
				e.P99 = &q
			}
			entries = append(entries, e)
		}
		doc := struct {
			Samples  uint64        `json:"samples"`
			Capacity int           `json:"capacity"`
			Series   []seriesEntry `json:"series"`
		}{s.Len(), s.Cap(), entries}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// Scraper polls a fixed target list and folds each daemon's snapshots
// into per-target series, with one fleet-wide health engine over them —
// the crying-baby rule gets the cross-site context no single daemon has.
type Scraper struct {
	mu       sync.Mutex
	targets  []string
	client   *http.Client
	samplers map[string]*series.Sampler
	engine   *health.Engine
	status   map[string]*TargetStatus
}

// TargetStatus is one target's scrape bookkeeping.
type TargetStatus struct {
	Target   string `json:"target"`
	Up       bool   `json:"up"`
	Error    string `json:"error,omitempty"`
	Scrapes  uint64 `json:"scrapes"`
	Failures uint64 `json:"failures"`
	// LastOkNs is the engine-clock time of the last successful scrape.
	LastOkNs int64 `json:"last_ok_ns"`
}

// NewScraper returns a scraper over targets ("host:port" or full URL
// bases). cfg tunes the fleet health engine; health output lands in out
// (nil = silent).
func NewScraper(targets []string, cfg health.Config, out *obs.Sink) *Scraper {
	s := &Scraper{
		targets:  append([]string(nil), targets...),
		client:   &http.Client{Timeout: 5 * time.Second},
		samplers: make(map[string]*series.Sampler),
		engine:   health.NewEngine(cfg, out),
		status:   make(map[string]*TargetStatus),
	}
	for _, t := range s.targets {
		s.samplers[t] = series.NewSampler(nil, SeriesCap)
		s.status[t] = &TargetStatus{Target: t}
		// Every target runs all rules; rules whose metrics a target does
		// not expose read no data and stay silent.
		s.engine.AddEntity(t, true, s.samplers[t])
	}
	return s
}

// Engine returns the fleet health engine.
func (s *Scraper) Engine() *health.Engine { return s.engine }

// baseURL normalizes a target into an http base.
func baseURL(target string) string {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		return strings.TrimSuffix(target, "/")
	}
	return "http://" + target
}

// ScrapeOnce polls every target once at nowNs, ingests snapshots, and
// runs one health evaluation. Targets are scraped sequentially — the
// fleet sizes lbrm-top watches don't need fan-out, and it keeps the
// sample clock single-writer.
func (s *Scraper) ScrapeOnce(nowNs int64) []health.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, target := range s.targets {
		st := s.status[target]
		st.Scrapes++
		snap, err := s.fetchDump(target)
		if err != nil {
			st.Up, st.Error = false, err.Error()
			st.Failures++
			continue
		}
		st.Up, st.Error = true, ""
		st.LastOkNs = nowNs
		s.samplers[target].SampleSnapshot(nowNs, snap)
	}
	return s.engine.Eval(nowNs)
}

// fetchDump decodes the metric sections of a target's JSON exposition
// (obs.Dump's wire format shares obs.Snapshot's three keys).
func (s *Scraper) fetchDump(target string) (snap obs.Snapshot, err error) {
	resp, err := s.client.Get(baseURL(target) + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode: %w", err)
	}
	return snap, nil
}

// ValidatePromOne scrapes a target's Prometheus endpoint and runs the
// line-discipline parser over it, checking the Content-Type carries the
// 0.0.4 version. Returns the family count.
func (s *Scraper) ValidatePromOne(target string) (int, error) {
	resp, err := s.client.Get(baseURL(target) + "/metrics/prom")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		return 0, fmt.Errorf("content-type %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ParseProm(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return 0, err
	}
	return len(fams), nil
}

// TargetReport is one row of the fleet table / control-plane API.
type TargetReport struct {
	TargetStatus
	// NackRate is the windowed NACK demand in NACKs/s.
	NackRate float64 `json:"nack_rate"`
	// RecoveryP99MS is the windowed recovery p99 (0 when no recoveries).
	RecoveryP99MS float64 `json:"recovery_p99_ms"`
	// Goroutines / HeapAllocBytes / GCPauseLastNs mirror the runtime
	// series (0 when the target doesn't expose them).
	Goroutines    int64 `json:"goroutines"`
	HeapAlloc     int64 `json:"heap_alloc_bytes"`
	GCPauseLastNs int64 `json:"gc_pause_last_ns"`
	// Alerts are this target's active alerts.
	Alerts []health.Alert `json:"alerts"`
}

// Report is the full control-plane document served at /fleet.
type Report struct {
	AtNs             int64          `json:"at_ns"`
	DetectionBoundNs int64          `json:"detection_bound_ns"`
	Targets          []TargetReport `json:"targets"`
	Active           []health.Alert `json:"active"`
	History          []health.Alert `json:"history"`
}

// Report assembles the current fleet view.
func (s *Scraper) Report(nowNs int64) Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := s.engine.Config()
	active := s.engine.Active()
	rep := Report{
		AtNs:             nowNs,
		DetectionBoundNs: int64(cfg.DetectionBound()),
		Active:           active,
		History:          s.engine.History(),
	}
	if rep.Active == nil {
		rep.Active = []health.Alert{}
	}
	if rep.History == nil {
		rep.History = []health.Alert{}
	}
	for _, target := range s.targets {
		smp := s.samplers[target]
		tr := TargetReport{TargetStatus: *s.status[target], Alerts: []health.Alert{}}
		for _, name := range cfg.NackCounters {
			if r, ok := smp.Rate(name, cfg.Window); ok {
				tr.NackRate += r
			}
		}
		for _, name := range cfg.RecoveryHists {
			if q, ok := smp.Quantile(name, 0.99, cfg.Window); ok && q > tr.RecoveryP99MS {
				tr.RecoveryP99MS = q
			}
		}
		tr.Goroutines, _ = smp.Last("runtime.goroutines")
		tr.HeapAlloc, _ = smp.Last("runtime.heap_alloc_bytes")
		tr.GCPauseLastNs, _ = smp.Last("runtime.gc_pause_last_ns")
		for _, a := range active {
			if a.Entity == target || a.Entity == "fleet" {
				tr.Alerts = append(tr.Alerts, a)
			}
		}
		rep.Targets = append(rep.Targets, tr)
	}
	return rep
}

// FleetHandler serves the control-plane Report as JSON at every request
// (GET only) — mounted at /fleet on the lbrm-top mux next to the
// standard obs.Handler endpoints.
func (s *Scraper) FleetHandler(now func() int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.JSONContentType)
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Report(now()))
	})
}

// ReportJSON renders a Report as indented JSON (the -json CLI view and
// the /fleet endpoint share one shape).
func ReportJSON(rep Report) string {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// WriteTable renders the fleet health table: one row per target plus an
// alert tail, the lbrm-top terminal view.
func WriteTable(w io.Writer, rep Report) {
	fmt.Fprintf(w, "%-28s %-5s %9s %12s %6s %10s %s\n",
		"TARGET", "UP", "NACK/s", "REC-P99(ms)", "GORO", "HEAP(MB)", "ALERTS")
	for _, tr := range rep.Targets {
		up := "up"
		if !tr.Up {
			up = "DOWN"
		}
		names := make([]string, 0, len(tr.Alerts))
		for _, a := range tr.Alerts {
			names = append(names, a.RuleName)
		}
		sort.Strings(names)
		alerts := strings.Join(names, ",")
		if alerts == "" {
			alerts = "-"
		}
		fmt.Fprintf(w, "%-28s %-5s %9.2f %12.1f %6d %10.1f %s\n",
			tr.Target, up, tr.NackRate, tr.RecoveryP99MS,
			tr.Goroutines, float64(tr.HeapAlloc)/(1<<20), alerts)
	}
	if len(rep.Active) > 0 {
		fmt.Fprintf(w, "\nactive alerts (detection bound %v):\n", time.Duration(rep.DetectionBoundNs))
		for _, a := range rep.Active {
			fmt.Fprintf(w, "  %-12s %-28s value=%.2f threshold=%.2f since=%s\n",
				a.RuleName, a.Entity, a.Value, a.Threshold,
				time.Unix(0, a.RaisedAt).Format(time.TimeOnly))
		}
	}
}
