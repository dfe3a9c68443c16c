package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// schema versions the result file format.
const schema = "ladderbench/1"

// metricValue is one measured metric.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// prediction is one of the workload rationale's claims, checked against the
// traced pass.
type prediction struct {
	Claim string  `json:"claim"`
	Value float64 `json:"value"`
	Holds bool    `json:"holds"`
}

// result is everything one run measured; it is written as the run's result
// file and summarised on standard output.
type result struct {
	Schema       string                 `json:"schema"`
	Workload     string                 `json:"workload"`
	Why          string                 `json:"why"`
	Seed         int64                  `json:"seed"`
	HoldoutSeed  int64                  `json:"holdout_seed"`
	Trace        int                    `json:"trace"`
	Seconds      float64                `json:"seconds"`
	Scale        float64                `json:"scale"`
	StartedAt    time.Time              `json:"started_at"`
	Environment  environment            `json:"environment"`
	Inputs       inputs                 `json:"inputs"`
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	FailedRatio  float64                `json:"failed_ratio"`
	OracleChecks int                    `json:"oracle_checks"`
	Failures     []string               `json:"failures,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Windows holds per-window read throughput and latency.
	Windows     map[string][]float64 `json:"windows,omitempty"`
	Predictions []prediction         `json:"predictions,omitempty"`
	MetricDefs  []metricDef          `json:"metric_defs"`
	SpansFile   string               `json:"spans_file,omitempty"`

	spans                        []span
	untracedP50, tracedClientP50 float64
}

func newResult(w workload, seed int64, scale, seconds float64, traced bool) *result {
	res := &result{Schema: schema, Workload: w.name, Why: w.why, Seed: seed, HoldoutSeed: holdoutSeed,
		Seconds: seconds, Scale: scale, StartedAt: time.Now().UTC(),
		Environment: environment{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: min(runtime.NumCPU(), 2)},
		Inputs:     workloadInputs(w),
		Metrics:    make(map[string]metricValue),
		MetricDefs: append(append([]metricDef{}, endToEnd...), perLayer...),
	}
	if traced {
		res.Trace = 1
	}
	return res
}

func lookupDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric records a measured value under a name from the metric table.
func (res *result) metric(name string, v float64, samples int) {
	d, ok := lookupDef(name)
	if !ok {
		panic("ladderbench: metric " + name + " is not in the metric table")
	}
	res.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Samples: samples}
}

// finish settles correctness and checks the workload's predictions.
func (res *result) finish(r *runner) {
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	res.FailedRatio = ratio(float64(res.Failed), float64(res.Attempted))
	res.Failures = r.failures
	res.Correct = res.Failed == 0 && res.Attempted > 0 && res.OracleChecks > 0
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
		}
	}
	if res.Trace == 0 {
		return
	}
	m := func(name string) float64 { return res.Metrics[name].Value }
	switch res.Workload {
	case "listing-many-docs":
		v := ratio(m("catalog.query_us.p50"), res.tracedClientP50)
		res.Predictions = append(res.Predictions, prediction{
			"catalog p50 is the majority of traced client p50", v, v > 0.5})
	case "search-long-docs":
		v := ratio(m("server.self_us.p50")+m("client.http_self_us.p50"), res.tracedClientP50)
		res.Predictions = append(res.Predictions, prediction{
			"server + client self p50 is the majority of traced client p50", v, v > 0.5})
	case "ingest-churn":
		v := m("ingest.compactions")
		res.Predictions = append(res.Predictions, prediction{
			"several (≥3) compaction cycles complete while the run writes", v, v >= 3})
	}
}

// stem names the run's files.
func (res *result) stem() string {
	return fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, res.Trace)
}

// write stores the result file and, after a traced pass, the spans (one
// JSON object per line) under dir.
func (res *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if res.spans != nil {
		res.SpansFile = res.stem() + "-spans.jsonl"
		if err := writeSpans(filepath.Join(dir, res.SpansFile), res.spans); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, res.stem()+".json"), append(b, '\n'), 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printed is the set of metrics the summary line carries: end-to-end
// untraced, per-layer traced.
func (res *result) printed() []metricDef {
	if res.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

// report writes every printed metric by name and unit, the failure count
// and the predictions to log. A metric of a layer the workload never
// reaches reads 0 from 0 samples.
func (res *result) report(log io.Writer) {
	fmt.Fprintf(log, "ladderbench: %s seed %d trace %d: attempted %d, failed %d (failed_ratio %g), %d oracle checks\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.FailedRatio, res.OracleChecks)
	for _, f := range res.Failures {
		fmt.Fprintf(log, "  failure: %s\n", f)
	}
	for _, d := range res.printed() {
		v := res.Metrics[d.Name]
		fmt.Fprintf(log, "  %-36s %14.4f %-6s (%d samples)\n", d.Name, v.Value, d.Unit, v.Samples)
	}
	for _, p := range res.Predictions {
		fmt.Fprintf(log, "  prediction: %s: %.3f (holds: %v)\n", p.Claim, p.Value, p.Holds)
	}
}

// summaryMetric is a metric as the last output line carries it.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

func (res *result) summary() summary {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]summaryMetric)}
	for _, d := range res.printed() {
		v := res.Metrics[d.Name]
		s.Metrics[d.Name] = summaryMetric{Value: v.Value, Unit: d.Unit}
	}
	return s
}
