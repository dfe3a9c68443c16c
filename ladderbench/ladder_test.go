package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/server"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTable(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// writePathOnly reports whether the metric is measured only where the
// ingest layer and writes are reached, on ingest-churn.
func writePathOnly(name string) bool {
	d, _ := lookupDef(name)
	return d.Layer == "ingest" || strings.HasPrefix(name, "client.write")
}

// TestWorkloadsPrintEveryMetric runs every workload at toy scale in both
// modes and checks the last output line: correct, and every metric
// BENCHMARK.json names printed, finite and in its unit; end-to-end
// metrics and every per-layer time of a layer the workload reaches also
// non-zero, and the write-path metrics 0 where it never writes.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--scale", "0.02", "--work", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
					t.Fatalf("summary %+v\n%s", s, stderr.String())
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(s.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := s.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, m.Value)
					case trace == "1" && !w.mutable && writePathOnly(d.Name):
						if m.Value != 0 {
							t.Errorf("%s = %v on a workload that never writes, want 0", d.Name, m.Value)
						}
					case (d.Unit == "us" || d.Unit == "s") && m.Value <= 0:
						t.Errorf("per-layer time %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestOracleCatchesCorruptedHit serves real answers, checks that the
// oracle accepts them, then corrupts one hit (or the count) and checks that
// the oracle rejects it.
func TestOracleCatchesCorruptedHit(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 3000, Theta: 0.3, Seed: 5})
	cat := catalog.New(catalog.Options{TauMin: tauMin})
	if _, err := cat.Add(collName, docs); err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, serverConfig(nil))
	ask := func(q query) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q.path(), rec.Code)
		}
		return rec.Body.Bytes()
	}
	p := gen.CollectionPatterns(docs, 1, 2, 7)[0]
	corruptions := []struct {
		q       query
		corrupt func(a *answer)
	}{
		{query{Op: opSearch, P: p, Tau: 0.12}, func(a *answer) { a.Hits[len(a.Hits)/2].Pos++ }},
		{query{Op: opSearch, P: p, Tau: 0.12}, func(a *answer) { a.Hits[0].Prob *= 1.001 }},
		{query{Op: opSearch, P: p, Tau: 0.12}, func(a *answer) { a.Hits = a.Hits[1:]; a.Count-- }},
		{query{Op: opTopK, P: p, K: 5}, func(a *answer) { a.Hits[len(a.Hits)-1].Doc++ }},
		{query{Op: opCount, P: p, Tau: 0.12}, func(a *answer) { a.Count++ }},
	}
	for _, c := range corruptions {
		body := ask(c.q)
		if err := checkAnswer(docs, c.q, body); err != nil {
			t.Fatalf("%s %q: the oracle rejects a correct answer: %v", c.q.Op, c.q.P, err)
		}
		a, err := decodeAnswer(body)
		if err != nil {
			t.Fatal(err)
		}
		if c.q.Op != opCount && len(a.Hits) < 2 {
			t.Fatalf("%s %q: want at least 2 hits to corrupt, got %d", c.q.Op, c.q.P, len(a.Hits))
		}
		c.corrupt(&a)
		bad, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(docs, c.q, bad); err == nil {
			t.Errorf("%s %q: the oracle accepted a corrupted answer %s", c.q.Op, c.q.P, bad)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(vals ...float64) map[runKey]*result {
		out := make(map[runKey]*result)
		for i, v := range vals {
			out[runKey{"w", int64(i), 0}] = &result{Workload: "w", Seed: int64(i),
				StartedAt: time.Unix(int64(i), 0),
				Metrics:   map[string]metricValue{"query_p50_us": {Value: v, Unit: "us"}}}
		}
		return out
	}
	parent := runs(100, 101, 99, 102, 98, 100, 101, 99, 100, 100)
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 82, 78, 80, 81, 79, 80, 80}, "improved"},
		{[]float64{110, 111, 109, 112, 108, 110, 111, 109, 110, 110}, "no worse within the bound"},
		{[]float64{140, 141, 139, 142, 138, 140, 141, 139, 140, 140}, "regressed"},
		{[]float64{60, 160, 70, 150, 80, 140, 90, 130, 100, 120}, "unresolved (spread wider than the bound)"},
	} {
		var got string
		for _, cmp := range compare(parent, runs(c.change...)) {
			if cmp.Metric == "query_p50_us" {
				got = cmp.Verdict
			}
		}
		if got != c.want {
			t.Errorf("change %v: verdict %q, want %q", c.change, got, c.want)
		}
	}
}
