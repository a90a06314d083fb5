package obs

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64: its own word (Inc/Add)
// plus every stats word attached to its name (Registry.AttachStats). All
// methods are nil-safe and wait-free.
type Counter struct {
	v   atomic.Uint64
	att atomic.Pointer[attached]
}

// attached is an immutable view of a counter's attached words, replaced
// whole under Registry.mu so a reader sees one consistent sum. Only the
// newest view is ever appended to, and a view never indexes past its own
// length, so attaching may extend the shared backing array in place.
type attached struct {
	folded uint64 // final totals of detached words
	words  []*uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	n := c.v.Load()
	if a := c.att.Load(); a != nil {
		n += a.folded
		for _, w := range a.words {
			n += atomic.LoadUint64(w)
		}
	}
	return n
}

func (c *Counter) attach(w *uint64) {
	var next attached
	if old := c.att.Load(); old != nil {
		next = *old
	}
	next.words = append(next.words, w)
	c.att.Store(&next)
}

// detach folds w's total into the counter and forgets the pointer.
func (c *Counter) detach(w *uint64) {
	if old := c.att.Load(); old != nil {
		if i := slices.Index(old.words, w); i >= 0 {
			c.att.Store(&attached{
				folded: old.folded + atomic.LoadUint64(w),
				words:  slices.Delete(slices.Clone(old.words), i, i+1),
			})
		}
	}
}

// Gauge is an instantaneous signed value. All methods are nil-safe and
// wait-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over uint64 samples (typically
// nanoseconds). Bucket i counts samples ≤ Bounds[i]; one overflow bucket
// counts the rest. Bounds are fixed at registration — Observe is a short
// linear scan plus one atomic add, with no allocation.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	sum    atomic.Uint64
}

// Observe folds in one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a consistent-enough copy of a histogram: each field
// is read atomically (the struct as a whole is not fenced — fine for
// telemetry, and exact once writers are quiet).
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket bounds; Counts has one extra
	// trailing overflow bucket.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
}

// Total returns the number of observed samples.
func (s HistogramSnapshot) Total() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ClassCounters is a counter family indexed by a small dense class enum
// (e.g. wire traffic classes): one packet counter and one byte counter per
// class. Record is the per-send hot path: two atomic adds.
type ClassCounters struct {
	pkts  []*Counter
	bytes []*Counter
}

// Record adds one packet of size bytes to class i. Out-of-range classes
// and nil receivers are ignored.
func (c *ClassCounters) Record(i int, size int) {
	if c == nil || i < 0 || i >= len(c.pkts) {
		return
	}
	c.pkts[i].Inc()
	c.bytes[i].Add(uint64(size))
}

// Pkts returns the packet count for class i (0 when out of range or nil).
func (c *ClassCounters) Pkts(i int) uint64 {
	if c == nil || i < 0 || i >= len(c.pkts) {
		return 0
	}
	return c.pkts[i].Value()
}

// Bytes returns the byte count for class i (0 when out of range or nil).
func (c *ClassCounters) Bytes(i int) uint64 {
	if c == nil || i < 0 || i >= len(c.bytes) {
		return 0
	}
	return c.bytes[i].Value()
}

// Registry holds preregistered metrics by name. Registration is idempotent
// (the first registration of a name wins, later ones return the same
// metric) and mutex-guarded; reads of registered metrics never lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// gen counts registrations of NEW metrics. Readers that cache a view
	// of the registry (the series sampler's track list) compare it to
	// decide whether a rescan is due, keeping their steady state free of
	// both locks and allocations.
	gen atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers (or finds) the named counter. Returns nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

func (r *Registry) counterLocked(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.gen.Add(1)
	}
	return c
}

// AttachStats makes the uint64 fields of *stats tagged `obs:"name"` the
// storage of the registry counters so named: the owner counts an event with
// one atomic.AddUint64 on the field, and Stats() and the registry read the
// same word. A counter reports the sum over every word attached to its
// name, so instances sharing a registry, and successive incarnations, add
// up. The words must be 64-bit aligned: on 32-bit targets, put the stats
// struct first in its owner. Cold path; a nil registry attaches nothing.
func (r *Registry) AttachStats(stats any) { r.eachStat(stats, (*Counter).attach) }

// DetachStats undoes AttachStats when the component stops: each word's
// total stays in its counter, the pointers go, and the stopped instance is
// no longer reachable from the registry. Later adds show in Stats() only.
func (r *Registry) DetachStats(stats any) { r.eachStat(stats, (*Counter).detach) }

func (r *Registry) eachStat(stats any, f func(*Counter, *uint64)) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(stats).Elem()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("obs"); name != "" {
			f(r.counterLocked(name), v.Field(i).Addr().Interface().(*uint64))
		}
	}
}

// Gauge registers (or finds) the named gauge. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.gen.Add(1)
	}
	return g
}

// Histogram registers (or finds) the named histogram. Bounds must be
// strictly increasing; they are fixed by the first registration (later
// calls return the existing histogram regardless of bounds). Returns nil
// on a nil registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		clean := make([]uint64, 0, len(bounds))
		for _, b := range bounds {
			if len(clean) == 0 || b > clean[len(clean)-1] {
				clean = append(clean, b)
			}
		}
		h = &Histogram{bounds: clean, counts: make([]atomic.Uint64, len(clean)+1)}
		r.hists[name] = h
		r.gen.Add(1)
	}
	return h
}

// Gen returns the registration generation: it changes exactly when a new
// metric is registered, never on value updates. Nil-safe (0).
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// Visit calls the corresponding callback for every registered metric, in
// no particular order, under the registry mutex. It is a cold-path
// enumeration for cache builders (the series sampler, exposition); the
// callbacks must not register metrics. Nil callbacks and a nil registry
// are fine.
func (r *Registry) Visit(counter func(name string, c *Counter), gauge func(name string, g *Gauge), hist func(name string, h *Histogram)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if counter != nil {
		for name, c := range r.counters {
			counter(name, c)
		}
	}
	if gauge != nil {
		for name, g := range r.gauges {
			gauge(name, g)
		}
	}
	if hist != nil {
		for name, h := range r.hists {
			hist(name, h)
		}
	}
}

// Bounds returns the histogram's registered bucket bounds (shared slice —
// callers must not mutate). Nil-safe.
func (h *Histogram) Bounds() []uint64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCount returns the current count of bucket i (i == len(Bounds())
// is the overflow bucket). Out-of-range or nil returns 0. Wait-free.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// Sum returns the histogram's running sample sum. Nil-safe, wait-free.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Classes registers a per-class counter family: for each class name c the
// counters "<prefix>.<c>.pkts" and "<prefix>.<c>.bytes". Returns nil on a
// nil registry.
func (r *Registry) Classes(prefix string, classes []string) *ClassCounters {
	if r == nil {
		return nil
	}
	cc := &ClassCounters{
		pkts:  make([]*Counter, len(classes)),
		bytes: make([]*Counter, len(classes)),
	}
	for i, c := range classes {
		cc.pkts[i] = r.Counter(prefix + "." + c + ".pkts")
		cc.bytes[i] = r.Counter(prefix + "." + c + ".bytes")
	}
	return cc
}

// Snapshot is a point-in-time copy of a registry's metrics, the input to
// exposition and merging. Maps are never nil.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value. Works on a nil registry
// (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.Visit(
		func(name string, c *Counter) { s.Counters[name] = c.Value() },
		func(name string, g *Gauge) { s.Gauges[name] = g.Value() },
		func(name string, h *Histogram) { s.Histograms[name] = h.snapshot() },
	)
	return s
}

// Merge sums counters and histogram buckets (when bounds agree; on a
// bounds mismatch the first wins) and keeps each gauge's maximum —
// the aggregation used by the lbrm-sim fleet report.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			if cur, ok := out.Gauges[name]; !ok || v > cur {
				out.Gauges[name] = v
			}
		}
		for name, h := range s.Histograms {
			cur, ok := out.Histograms[name]
			if !ok {
				out.Histograms[name] = HistogramSnapshot{
					Bounds: append([]uint64(nil), h.Bounds...),
					Counts: append([]uint64(nil), h.Counts...),
					Sum:    h.Sum,
				}
				continue
			}
			if !equalBounds(cur.Bounds, h.Bounds) {
				continue
			}
			for i := range cur.Counts {
				cur.Counts[i] += h.Counts[i]
			}
			cur.Sum += h.Sum
			out.Histograms[name] = cur
		}
	}
	return out
}

func equalBounds(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedKeys returns map keys in lexical order (exposition is the cold
// path; sorting keeps dumps diffable).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
