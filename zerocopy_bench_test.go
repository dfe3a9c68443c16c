// Zero-copy serving benchmark: heap-decode reopen vs mmap reopen of a
// format-4 compressed-backend catalog cache, across growing corpus sizes.
// TestWriteBench10JSON snapshots the numbers to BENCH_10.json (set
// BENCH10_OUT) and enforces the PR-10 gates at the largest corpus point:
// mmap reopen ≥10× faster than heap reopen, post-start heap retention ≤10%
// of the heap-load figure, and query latency within 1.15× of heap-loaded.
package repro_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ustring"
)

// The reopen workload: compressed collections of fixed-length documents at
// growing document counts. The largest point is where the gates apply —
// small points exist to show the scaling shape, not to be gated (per-file
// constants dominate them).
const (
	bench10DocLen = 1200
	bench10Theta  = 0.3
	bench10TauMin = 0.1
	bench10Tau    = 0.12
	bench10Shards = 4
)

var bench10Points = []int{12, 48, 144}

type bench10Point struct {
	Docs            int   `json:"docs"`
	PositionsPerDoc int   `json:"positions_per_doc"`
	IndexBytes      int   `json:"index_bytes"`
	HeapReopenNs    int64 `json:"heap_reopen_ns"`
	MmapReopenNs    int64 `json:"mmap_reopen_ns"`
	// ReopenSpeedup is heap/mmap: how many times faster the mmap reopen is.
	ReopenSpeedup float64 `json:"reopen_speedup"`
	// PostStart*Bytes is the Go heap retained by the loaded catalog before
	// any query runs — the RSS proxy. The mmap'd regions are file-backed
	// MAP_SHARED pages: reclaimable, shared across processes, and absent
	// from the heap figure by construction; MappedBytes reports them.
	PostStartHeapBytes int64   `json:"post_start_heap_bytes"`
	PostStartMmapBytes int64   `json:"post_start_mmap_bytes"`
	ResidentRatio      float64 `json:"resident_ratio"`
	MappedBytes        int64   `json:"mapped_bytes"`
	HeapQueryNsPerOp   int64   `json:"heap_query_ns_per_op"`
	MmapQueryNsPerOp   int64   `json:"mmap_query_ns_per_op"`
	QueryLatencyRatio  float64 `json:"query_latency_ratio"`
}

type bench10 struct {
	Bench    string `json:"bench"`
	Backend  string `json:"backend"`
	Workload struct {
		PositionsPerDoc int     `json:"positions_per_doc"`
		Theta           float64 `json:"theta"`
		TauMin          float64 `json:"tau_min"`
		Tau             float64 `json:"tau"`
		Shards          int     `json:"shards"`
	} `json:"workload"`
	Points []bench10Point `json:"points"`
	Gates  struct {
		MinReopenSpeedup  float64 `json:"min_reopen_speedup"`
		MaxQueryRatio     float64 `json:"max_query_latency_ratio"`
		MaxResidentRatio  float64 `json:"max_resident_ratio"`
		GatedAtDocs       int     `json:"gated_at_docs"`
		ReopenSpeedup     float64 `json:"reopen_speedup"`
		QueryLatencyRatio float64 `json:"query_latency_ratio"`
		ResidentRatio     float64 `json:"resident_ratio"`
	} `json:"gates"`
}

// bench10Close unmaps/releases every per-document backend of every
// collection, so repeated reopens don't accumulate mappings.
func bench10Close(c *catalog.Catalog) {
	for _, name := range c.Names() {
		col, ok := c.Get(name)
		if !ok {
			continue
		}
		for _, ix := range col.DocIndexes() {
			core.CloseBackend(ix)
		}
	}
}

// bench10Reopen measures the best-of-several wall time of one full catalog
// load from dir. Minimum, not mean: reopen cost is the metric, scheduler
// noise is not.
func bench10Reopen(t *testing.T, dir string, opts catalog.Options) int64 {
	t.Helper()
	best := int64(math.MaxInt64)
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < 64 && (i < 3 || time.Now().Before(deadline)); i++ {
		start := time.Now()
		c, err := catalog.Load(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
		bench10Close(c)
	}
	return best
}

// bench10Retained loads the catalog once and reports the Go heap it
// retains before any query touches it, plus the catalog for later use.
func bench10Retained(t *testing.T, dir string, opts catalog.Options) (*catalog.Catalog, int64) {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := catalog.Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained < 1 {
		retained = 1
	}
	return c, retained
}

// bench10Query measures best-of-three Search latency over the collection.
func bench10Query(t *testing.T, col *catalog.Collection, pats [][]byte) int64 {
	t.Helper()
	best := int64(math.MaxInt64)
	for run := 0; run < 3; run++ {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := col.SearchObs(nil, nil, pats[i%len(pats)], bench10Tau); err != nil {
					b.Fatal(err)
				}
			}
		})
		if ns := r.NsPerOp(); ns < best {
			best = ns
		}
	}
	return best
}

// TestWriteBench10JSON measures heap vs mmap reopen across the corpus
// points and writes the snapshot named by BENCH10_OUT (skipped when unset).
// It fails — it is the CI gate, not just a report — when the largest point
// misses any of: reopen speedup ≥10×, post-start heap ≤10%, query latency
// ≤1.15×.
func TestWriteBench10JSON(t *testing.T) {
	out := os.Getenv("BENCH10_OUT")
	if out == "" {
		t.Skip("BENCH10_OUT not set")
	}
	doc := bench10{Bench: "zero-copy serving: heap-decode vs mmap reopen", Backend: core.BackendCompressed}
	doc.Workload.PositionsPerDoc = bench10DocLen
	doc.Workload.Theta = bench10Theta
	doc.Workload.TauMin = bench10TauMin
	doc.Workload.Tau = bench10Tau
	doc.Workload.Shards = bench10Shards
	doc.Gates.MinReopenSpeedup = 10
	doc.Gates.MaxQueryRatio = 1.15
	doc.Gates.MaxResidentRatio = 0.10
	doc.Gates.GatedAtDocs = bench10Points[len(bench10Points)-1]

	opts := catalog.Options{TauMin: bench10TauMin, Shards: bench10Shards, Backend: core.BackendCompressed}
	for _, nDocs := range bench10Points {
		docs := make([]*ustring.String, nDocs)
		for i := range docs {
			docs[i] = gen.Single(gen.Config{
				N: bench10DocLen, Theta: bench10Theta, Seed: int64(7000 + i),
			})
		}
		built := catalog.New(opts)
		col, err := built.Add("bench", docs)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := built.Save(dir); err != nil {
			t.Fatal(err)
		}

		heapOpts, mmapOpts := opts, opts
		mmapOpts.MMap = true
		pt := bench10Point{
			Docs:            nDocs,
			PositionsPerDoc: bench10DocLen,
			IndexBytes:      col.IndexBytes(),
		}
		pt.HeapReopenNs = bench10Reopen(t, dir, heapOpts)
		pt.MmapReopenNs = bench10Reopen(t, dir, mmapOpts)
		pt.ReopenSpeedup = float64(pt.HeapReopenNs) / float64(pt.MmapReopenNs)

		heapCat, heapRetained := bench10Retained(t, dir, heapOpts)
		pt.PostStartHeapBytes = heapRetained
		mmapCat, mmapRetained := bench10Retained(t, dir, mmapOpts)
		pt.PostStartMmapBytes = mmapRetained
		pt.ResidentRatio = float64(mmapRetained) / float64(heapRetained)
		pt.MappedBytes = mmapCat.MappedStats().MappedBytes

		pats := gen.CollectionPatterns(docs, 32, 12, 19)
		heapCol, _ := heapCat.Get("bench")
		mmapCol, _ := mmapCat.Get("bench")
		pt.HeapQueryNsPerOp = bench10Query(t, heapCol, pats)
		pt.MmapQueryNsPerOp = bench10Query(t, mmapCol, pats)
		pt.QueryLatencyRatio = float64(pt.MmapQueryNsPerOp) / float64(pt.HeapQueryNsPerOp)

		bench10Close(heapCat)
		bench10Close(mmapCat)
		doc.Points = append(doc.Points, pt)
		t.Logf("docs=%d: reopen heap %v mmap %v (%.1f×), retained heap %d mmap %d (%.3f), query ratio %.3f",
			nDocs, time.Duration(pt.HeapReopenNs), time.Duration(pt.MmapReopenNs), pt.ReopenSpeedup,
			pt.PostStartHeapBytes, pt.PostStartMmapBytes, pt.ResidentRatio, pt.QueryLatencyRatio)
	}

	last := doc.Points[len(doc.Points)-1]
	doc.Gates.ReopenSpeedup = last.ReopenSpeedup
	doc.Gates.QueryLatencyRatio = last.QueryLatencyRatio
	doc.Gates.ResidentRatio = last.ResidentRatio
	if last.ReopenSpeedup < doc.Gates.MinReopenSpeedup {
		t.Errorf("mmap reopen speedup %.2f× at %d docs, gate requires ≥%.0f×",
			last.ReopenSpeedup, last.Docs, doc.Gates.MinReopenSpeedup)
	}
	if last.ResidentRatio > doc.Gates.MaxResidentRatio {
		t.Errorf("post-start mmap heap is %.1f%% of heap-load at %d docs, gate requires ≤%.0f%%",
			last.ResidentRatio*100, last.Docs, doc.Gates.MaxResidentRatio*100)
	}
	if last.QueryLatencyRatio > doc.Gates.MaxQueryRatio {
		t.Errorf("mmap query latency is %.3f× heap at %d docs, gate requires ≤%.2f×",
			last.QueryLatencyRatio, last.Docs, doc.Gates.MaxQueryRatio)
	}

	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
