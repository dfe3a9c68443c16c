package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/ustring"
)

// collName is the one collection every workload serves.
const collName = "bench"

// tauMin is the construction threshold of every workload (the daemon's
// default -taumin).
const tauMin = 0.1

// repeats bounds how often a run repeats a timed step: at least min
// times, then until the times add up to budget, at most max times. A
// cheap step is repeated more, so its median settles.
type repeats struct {
	min, max int
	budget   time.Duration
}

// more reports whether step i (0-based) should run, given the seconds the
// earlier ones took.
func (rp repeats) more(i int, times []float64) bool {
	spent := 0.0
	for _, t := range times {
		spent += t
	}
	return i < rp.max && (i < rp.min || spent < rp.budget.Seconds())
}

// setupRuns and reopenRuns repeat set-up and reopen; setup_s and reopen_s
// report the medians.
var (
	setupRuns  = repeats{min: 3, max: 9, budget: 3 * time.Second}
	reopenRuns = repeats{min: 5, max: 25, budget: 3 * time.Second}
)

// poolFactor sizes every uniform query pool at this multiple of the
// server's default result-cache capacity, so a closed loop walking the pool
// keeps the cache hit rate near 0.
const poolFactor = 32

// holdoutSeed is kept out of development: a claimed gain must also hold on
// it, so a change tuned to the development seeds is caught.
const holdoutSeed = 7919

// opKind is one read operation of the query API.
type opKind int

const (
	opSearch opKind = iota
	opCount
	opTopK
)

func (o opKind) String() string {
	switch o {
	case opCount:
		return "count"
	case opTopK:
		return "topk"
	}
	return "search"
}

// query is one read: a pattern with a threshold (search, count) or a k
// (top-k).
type query struct {
	Op  opKind
	P   []byte
	Tau float64
	K   int
}

// path renders the query as its /v1 request path.
func (q query) path() string {
	v := url.Values{}
	v.Set("collection", collName)
	v.Set("p", string(q.P))
	switch q.Op {
	case opTopK:
		v.Set("k", strconv.Itoa(q.K))
		return "/v1/topk?" + v.Encode()
	case opCount:
		v.Set("tau", strconv.FormatFloat(q.Tau, 'g', -1, 64))
		return "/v1/count?" + v.Encode()
	}
	v.Set("tau", strconv.FormatFloat(q.Tau, 'g', -1, 64))
	return "/v1/query?" + v.Encode()
}

// workload is one traffic mix over one generated corpus. Sizes are the
// full-scale values; a run multiplies them by its scale (tests use a toy
// scale).
type workload struct {
	name    string
	why     string
	backend string
	// Corpus: docs documents of docLen positions each from gen.Single, or
	// (docs == 0) gen.Collection over positions positions (lengths 20–45).
	positions int
	docs      int
	docLen    int
	theta     float64
	// Read mix in percent (search, count, top-k) and query parameters.
	mix          [3]int
	mMin, mMax   int
	tauLo, tauHi float64
	kMax         int
	// Write path (ingest-churn only): the store is seeded through
	// Store.Put, one open-loop writer runs at writeRate, and half of the
	// reader's queries go to hotKeys cached (pattern, τ) keys. The traced
	// pass writes on at the same rate through the ingest rung.
	//
	// writeRate keeps the untraced pass under the compaction threshold: a
	// 15 s run writes for 16 s with the warm-up, 40 writes at 2.5/s, and
	// the churn cycle adds at most 4 pending documents per 3 writes, so at
	// most 53 of the 64 that start a compaction. At 3/s (49 writes) the
	// last writes reached 65 and started one in the last measuring window.
	mutable   bool
	writeRate float64
	hotKeys   int
}

var workloads = []workload{
	{
		name:    "listing-many-docs",
		why:     "≈6.2k short docs, plain backend: every query probes every doc, so the catalog fan-out dominates; a handler-only change should show nothing here",
		backend: core.BackendPlain, positions: 200000, theta: 0.3,
		mix: [3]int{70, 15, 15}, mMin: 3, mMax: 12, tauLo: 0.12, tauHi: 0.3, kMax: 10,
	},
	{
		name:    "search-long-docs",
		why:     "8 long docs on the FM-index backend: core sets the tail, handler plus loopback HTTP the median; a catalog-only change should show nothing here",
		backend: core.BackendCompressed, docs: 8, docLen: 25000, theta: 0.3,
		mix: [3]int{80, 0, 20}, mMin: 3, mMax: 24, tauLo: 0.1, tauHi: 0.5, kMax: 10,
	},
	{
		name:    "ingest-churn",
		why:     "fsynced PUT/DELETE at 2.5/s beside hot cached and uniform reads: WAL appends, delta views and result-cache invalidation under reads show here",
		backend: core.BackendPlain, positions: 60000, theta: 0.3,
		mix: [3]int{70, 15, 15}, mMin: 3, mMax: 12, tauLo: 0.12, tauHi: 0.3, kMax: 10,
		mutable: true, writeRate: 2.5, hotKeys: 16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// scaled returns n scaled by s, at least min.
func scaled(n int, s float64, min int) int {
	v := int(float64(n) * s)
	if v < min {
		return min
	}
	return v
}

// corpus generates the workload's documents from seed.
func (w workload) corpus(seed int64, scale float64) []*ustring.String {
	if w.docs > 0 {
		out := make([]*ustring.String, w.docs)
		for i := range out {
			out[i] = gen.Single(gen.Config{N: scaled(w.docLen, scale, 200), Theta: w.theta, Seed: seed*1000 + int64(i)})
		}
		return out
	}
	return gen.Collection(gen.Config{N: scaled(w.positions, scale, 2000), Theta: w.theta, Seed: seed})
}

// writeDocs generates the documents the ingest-churn writer puts.
func (w workload) writeDocs(seed int64, scale float64) []*ustring.String {
	return gen.Collection(gen.Config{N: scaled(w.positions/4, scale, 1000), Theta: w.theta, Seed: seed + 1<<20})
}

// queries generates n reads from the workload's mix: m uniform in
// [mMin, mMax], τ uniform in [tauLo, tauHi], k uniform in [1, kMax], with
// patterns sampled from the documents' pdfs (gen.CollectionPatterns), so
// most patterns occur. The result is in random order.
func (w workload) queries(docs []*ustring.String, n int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	lengths := w.mMax - w.mMin + 1
	out := make([]query, 0, n)
	for m := w.mMin; m <= w.mMax; m++ {
		count := n / lengths
		if m-w.mMin < n%lengths {
			count++
		}
		for _, p := range gen.CollectionPatterns(docs, count, m, seed+int64(m)) {
			q := query{P: p}
			switch r := rng.Intn(100); {
			case r < w.mix[0]:
				q.Op = opSearch
			case r < w.mix[0]+w.mix[1]:
				q.Op = opCount
			default:
				q.Op = opTopK
			}
			if q.Op == opTopK {
				q.K = 1 + rng.Intn(w.kMax)
			} else {
				q.Tau = w.tauLo + rng.Float64()*(w.tauHi-w.tauLo)
			}
			out = append(out, q)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// poolSize is the uniform query pool size.
func poolSize() int { return poolFactor * server.DefaultCacheEntries }

// hot turns the first n queries of qs into the hot (pattern, τ) search
// keys of ingest-churn.
func (w workload) hot(qs []query, n int) []query {
	out := make([]query, 0, n)
	for _, q := range qs[:n] {
		if q.Op != opSearch {
			q.Op, q.K = opSearch, 0
			q.Tau = (w.tauLo + w.tauHi) / 2
		}
		out = append(out, q)
	}
	return out
}
