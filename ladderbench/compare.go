package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runKey pairs the runs of two commits: the same workload, seed and mode.
type runKey struct {
	workload string
	seed     int64
	trace    int
}

// loadResults reads every result file in dir.
func loadResults(dir string) (map[runKey]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[runKey]*result)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if res.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, res.Schema, schema)
		}
		out[runKey{res.Workload, res.Seed, res.Trace}] = &res
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), which is how the benchmark's spread rule is stated.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// comparison is the verdict on one (workload, metric) between a parent
// commit A and a change B.
type comparison struct {
	Workload, Metric string
	Unit, Better     string
	Bound            float64
	A, B             [3]float64 // q1, median, q3
	Pairs, Wins      int
	AFirst           int // pairs whose A run started first
	Verdict          string
}

// better reports whether x is better than y in direction dir.
func better(dir string, x, y float64) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// verdict applies the comparison rules: a gain needs B to win at
// least nine tenths of the pairs and the medians to differ by more than A's
// own quartile spread; a metric with a bound is no worse when B's median
// is within the bound of A's, unless either side spreads wider than the
// bound — then it is unresolved, unless every B run beats every A run.
func verdict(c comparison, a, b []float64) string {
	medA, medB := c.A[1], c.B[1]
	if c.Pairs > 0 && float64(c.Wins) >= 0.9*float64(c.Pairs) &&
		better(c.Better, medB, medA) && math.Abs(medB-medA) > c.A[2]-c.A[0] {
		return "improved"
	}
	if c.Bound == 0 {
		return "unresolved (no bound)"
	}
	spreadA := ratio(c.A[2]-c.A[0], math.Abs(medA))
	spreadB := ratio(c.B[2]-c.B[0], math.Abs(medB))
	if spreadA > c.Bound || spreadB > c.Bound {
		for _, x := range b {
			for _, y := range a {
				if !better(c.Better, x, y) {
					return "unresolved (spread wider than the bound)"
				}
			}
		}
		return "no worse within the bound"
	}
	worse := ratio(medB-medA, math.Abs(medA))
	if c.Better == "higher" {
		worse = -worse
	}
	if worse > c.Bound {
		return "regressed"
	}
	return "no worse within the bound"
}

// compare builds the comparisons of every metric a run printed: the
// end-to-end metrics from untraced runs, the per-layer ones from traced
// runs. Pairs are runs with the same workload, seed and mode on both sides.
func compare(a, b map[runKey]*result) []comparison {
	var out []comparison
	workloadNames := make(map[string]bool)
	for k := range a {
		workloadNames[k.workload] = true
	}
	var names []string
	for n := range workloadNames {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range names {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				c := comparison{Workload: wl, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
				var av, bv []float64
				for k, ra := range a {
					if k.workload != wl || k.trace != trace {
						continue
					}
					x := ra.Metrics[d.Name].Value
					av = append(av, x)
					if rb, ok := b[k]; ok {
						y := rb.Metrics[d.Name].Value
						c.Pairs++
						if better(d.Better, y, x) {
							c.Wins++
						}
						if ra.StartedAt.Before(rb.StartedAt) {
							c.AFirst++
						}
					}
				}
				for k, rb := range b {
					if k.workload == wl && k.trace == trace {
						bv = append(bv, rb.Metrics[d.Name].Value)
					}
				}
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				c.A[0], c.A[1], c.A[2] = quartiles(av)
				c.B[0], c.B[1], c.B[2] = quartiles(bv)
				c.Verdict = verdict(c, av, bv)
				out = append(out, c)
			}
		}
	}
	return out
}

// compareMain is the compare mode: it prints one row per (workload,
// metric) and exits 1 when an end-to-end metric regressed beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ladderbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dirA := fs.String("a", "", "directory of the parent commit's result files")
	dirB := fs.String("b", "", "directory of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirA == "" || *dirB == "" {
		fmt.Fprintln(stderr, "ladderbench compare: --a and --b are required")
		return 2
	}
	a, err := loadResults(*dirA)
	if err == nil {
		var b map[runKey]*result
		b, err = loadResults(*dirB)
		if err == nil {
			return printComparisons(stdout, compare(a, b))
		}
	}
	fmt.Fprintln(stderr, "ladderbench compare:", err)
	return 1
}

func printComparisons(w io.Writer, cs []comparison) int {
	if len(cs) == 0 {
		fmt.Fprintln(w, "no metric has runs on both sides")
		return 1
	}
	code := 0
	fmt.Fprintf(w, "%-18s %-34s %-6s %-28s %-28s %-12s %-9s %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "A first", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-18s %-34s %-6s %-28s %-28s %-12s %-9s %s\n",
			c.Workload, c.Metric, c.Unit, fmtQ(c.A), fmtQ(c.B),
			fmt.Sprintf("%d/%d", c.Wins, c.Pairs), fmt.Sprintf("%d/%d", c.AFirst, c.Pairs), c.Verdict)
		if c.Verdict == "regressed" {
			code = 1
		}
	}
	return code
}

func fmtQ(q [3]float64) string {
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]))
}
