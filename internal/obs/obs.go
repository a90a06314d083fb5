// Package obs is the zero-allocation observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms, plus a
// seqlock-style ring-buffer tracer for protocol transitions (failovers,
// epoch bumps, fence hits, promotions, skip/advance records, DA-set
// epochs).
//
// The design contract mirrors the datapath allocation contract (DESIGN.md):
//
//   - Registration is the cold path: components resolve every metric they
//     will ever touch once, at construction, and keep the returned
//     pointers; protocol counters are the component's own Stats words,
//     lent to the registry by Registry.AttachStats. Registration takes a
//     mutex; the hot path never does.
//   - The hot path is wait-free: an atomic add on a stats word, Counter.Add,
//     Gauge.Set, Histogram.Observe and Ring.Emit are a handful of atomic
//     operations — no allocation, no locks, no map lookups.
//   - Everything is nil-safe: a nil *Sink hands out nil metrics, and every
//     method on a nil *Counter/*Gauge/*Histogram/*Ring is a no-op. An
//     uninstrumented component pays a single predictable branch per
//     operation and nothing else.
//
// Exposition (text and expvar-style JSON rendering of a registry snapshot)
// lives in expo.go; it allocates freely — observability readers are never
// on the datapath.
package obs

import "fmt"

// Sink bundles the two halves of the observability layer — a metric
// Registry and a trace Ring — behind one nil-safe handle that protocol
// components accept in their configs. A nil *Sink is fully functional:
// every registration returns a nil metric whose operations no-op.
type Sink struct {
	reg    *Registry
	ring   *Ring
	flight *Ring
}

// DefaultRingSize is the trace capacity NewSink allocates: enough to hold
// every protocol transition of a long chaos run (transitions are rare —
// the ring records failovers, not packets).
const DefaultRingSize = 512

// DefaultFlightRingSize is the flight-recorder capacity NewSink allocates.
// Flight events are per-lost-packet (a handful per recovery), so the ring
// is sized for thousands of recoveries, not the raw packet rate.
const DefaultFlightRingSize = 4096

// Config sizes a sink's rings. The zero value of each field selects the
// default; explicit sizes must be powers of two ≥ 8 (the rings index with
// a bit mask, so a silent round-up would lie about the retained window).
type Config struct {
	// RingSize is the protocol-transition trace capacity, in events.
	RingSize int
	// FlightRingSize is the flight-recorder capacity, in events.
	FlightRingSize int
}

// ringSize validates one configured capacity.
func ringSize(name string, n, def int) (int, error) {
	if n == 0 {
		return def, nil
	}
	if n < 8 || n&(n-1) != 0 {
		return 0, fmt.Errorf("obs: %s %d: ring sizes must be powers of two ≥ 8", name, n)
	}
	return n, nil
}

// NewSink returns a live sink with a fresh registry and default-sized
// trace and flight rings.
func NewSink() *Sink {
	s, _ := NewSinkWith(Config{}) // zero config cannot fail
	return s
}

// NewSinkWith returns a live sink with the configured ring capacities.
func NewSinkWith(cfg Config) (*Sink, error) {
	rs, err := ringSize("RingSize", cfg.RingSize, DefaultRingSize)
	if err != nil {
		return nil, err
	}
	fs, err := ringSize("FlightRingSize", cfg.FlightRingSize, DefaultFlightRingSize)
	if err != nil {
		return nil, err
	}
	return &Sink{reg: NewRegistry(), ring: NewRing(rs), flight: NewRing(fs)}, nil
}

// Registry returns the underlying metric registry (nil for a nil sink).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Ring returns the underlying trace ring (nil for a nil sink).
func (s *Sink) Ring() *Ring {
	if s == nil {
		return nil
	}
	return s.ring
}

// FlightRing returns the flight-recorder ring (nil for a nil sink).
func (s *Sink) FlightRing() *Ring {
	if s == nil {
		return nil
	}
	return s.flight
}

// Counter registers (or finds) a counter. Nil-safe cold path.
func (s *Sink) Counter(name string) *Counter { return s.Registry().Counter(name) }

// Gauge registers (or finds) a gauge. Nil-safe cold path.
func (s *Sink) Gauge(name string) *Gauge { return s.Registry().Gauge(name) }

// Histogram registers (or finds) a fixed-bucket histogram. Nil-safe cold
// path; see Registry.Histogram for bounds semantics.
func (s *Sink) Histogram(name string, bounds []uint64) *Histogram {
	return s.Registry().Histogram(name, bounds)
}

// Classes registers a per-class counter family under
// "<prefix>.<class>.pkts" / "<prefix>.<class>.bytes". Nil-safe cold path.
func (s *Sink) Classes(prefix string, classes []string) *ClassCounters {
	return s.Registry().Classes(prefix, classes)
}

// Emit appends one trace event. Nil-safe, wait-free hot path.
func (s *Sink) Emit(at int64, kind Kind, a, b, c uint64) {
	if s == nil {
		return
	}
	s.ring.Emit(at, kind, a, b, c)
}

// EmitFlight appends one flight-recorder event (the per-sequence recovery
// trace, DESIGN.md §10). Nil-safe, wait-free, zero-allocation hot path.
func (s *Sink) EmitFlight(at int64, kind Kind, seq, b, c uint64) {
	if s == nil {
		return
	}
	s.flight.Emit(at, kind, seq, b, c)
}
