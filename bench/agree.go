package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns what Python's statistics.quantiles(values, n=4) does
// (the exclusive method), which is how the benchmark driver measures
// spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// parseMetrics reads the `name value unit n=<samples>` lines of one run.
func parseMetrics(out []byte) map[string]float64 {
	got := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || !strings.HasPrefix(f[3], "n=") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			got[f[0]] = v
		}
	}
	return got
}

// runAgree runs two interleaved sets of n untraced runs per workload —
// set A on seeds 1..n, set B on seeds n+1..2n, each run its own process —
// and prints, for every metric of the table that has a bound, both sets'
// quartiles, each set's spread (IQR ÷ median) and how far apart the two
// medians are, next to the bound. Two sets of the same code must agree:
// whichever set is called A, the medians may not differ by more than the
// bound, and neither set may spread wider than it. It returns 1 when a
// gated metric fails that, or any run failed its correctness check.
func runAgree(w io.Writer, n int, secs float64) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree needs at least 2 runs per set")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -agree:", err)
		return 2
	}
	bad := 0
	fmt.Fprintf(w, "# Agreement of two interleaved sets of %d runs (%g s window)\n\n", n, secs)
	fmt.Fprintln(w, "Spread is IQR ÷ median inside a set (quartiles as Python's `statistics.quantiles(n=4)`);")
	fmt.Fprintln(w, "apart is the distance between the two medians as a share of the smaller. Both must stay")
	fmt.Fprintln(w, "within the bound. A `harness.*` metric is judged by the issue's bound and gates nothing.")
	for _, workload := range workloadNames {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				seed := i + 1 + set*n
				cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: -agree: %s seed %d: %v\n", workload, seed, err)
					bad++
				}
				for name, v := range parseMetrics(out) {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		fmt.Fprintf(w, "\n## %s\n\n", workload)
		fmt.Fprintln(w, "| metric | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | apart | bound | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
		for _, d := range metricDefs {
			a, b := sets[0][d.name], sets[1][d.name]
			if d.bound == 0 || len(a) < 2 || len(b) < 2 {
				continue // no bound, or not produced by this workload
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			apart := math.Abs(b2-a2) / math.Min(a2, b2)
			verdict := "agree"
			if math.Max(spreadA, spreadB) > d.bound || apart > d.bound {
				verdict = "DISAGREE"
				if d.gated {
					bad++
				} else {
					verdict += " (not gated)"
				}
			}
			fmt.Fprintf(w, "| `%s` | %.5g / %.5g / %.5g | %.5g / %.5g / %.5g | %.2f %% | %.2f %% | %.2f %% | %.0f %% | %s |\n",
				d.name, a1, a2, a3, b1, b2, b3, spreadA*100, spreadB*100, apart*100, d.bound*100, verdict)
		}
		for set, name := range []string{"A", "B"} {
			for _, v := range sets[set]["harness.failed_share"] {
				if v != 0 {
					fmt.Fprintf(w, "\nset %s: `harness.failed_share` %g — must stay 0\n", name, v)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d disagreements or failed runs.\n", bad)
		return 1
	}
	fmt.Fprintln(w, "\nEvery gated metric agrees on every workload; `harness.failed_share` is 0 on every run.")
	return 0
}
