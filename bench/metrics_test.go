package main

import (
	"math"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10) // uniform on (0, 1 ms]
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		got, want := h.quantile(q), q*1e6
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f ns, want %.0f within 1 %%", q, got, want)
		}
	}
	var empty histogram
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram has a median")
	}
	var m histogram
	m.merge(&h)
	if m.n != h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Error("merge into an empty histogram changed the samples")
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 12345, 1 << 46} {
		lo, width := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d filed under bucket [%g, %g)", v, lo, lo+width)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the driver's measure of spread.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.2, 1.9, 1.1, 1.4, 1.3, 5.0}, [3]float64{1.175, 1.35, 2.675}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestParseMetrics(t *testing.T) {
	got := parseMetrics([]byte("# note\nsetup_s 0.05 s n=5\nbroken line\nharness.cpu_us_per_delivery 18.5 us n=100\n{\"correct\":true}\n"))
	if len(got) != 2 || got["setup_s"] != 0.05 || got["harness.cpu_us_per_delivery"] != 18.5 {
		t.Fatalf("parsed %v", got)
	}
}
