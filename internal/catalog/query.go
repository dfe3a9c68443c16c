package catalog

import (
	"container/heap"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// shardResult carries one shard's hits (or count) back to the merger, plus
// the time the shard spent inside the backend searches and the backend cost
// counters it accumulated. Durations and stats travel back through the join
// rather than into the trace/cost directly, so shard goroutines never touch
// the (unsynchronised) request-level observability state.
type shardResult struct {
	hits  []DocHit
	count int
	dur   time.Duration
	stats core.QueryStats
	err   error
}

// fanOut runs fn once per non-empty shard concurrently and returns the
// per-shard results in shard order. Collections are immutable, so the only
// synchronisation is the join. With a non-nil trace it records two stages:
// "fanout" (wall time of the whole scatter/join) and "backend_search" (the
// sum of per-shard search time, i.e. the work the fan-out parallelised).
// With a non-nil cost it counts the shards that ran and sums the per-shard
// backend stats at the join. A panic inside a shard becomes that shard's
// error, carrying the panic value and stack, so one bad index fails the
// query rather than the process.
func (col *Collection) fanOut(tr *obs.Trace, c *obs.Cost, fn func(shard []docIndex, out *shardResult)) ([]shardResult, error) {
	results := make([]shardResult, len(col.shards))
	begin := time.Time{}
	if tr != nil {
		begin = time.Now()
	}
	var wg sync.WaitGroup
	touched := int64(0)
	for s := range col.shards {
		if len(col.shards[s]) == 0 {
			continue
		}
		touched++
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					results[s].err = fmt.Errorf("catalog: collection %q shard %d: panic: %v\n%s", col.name, s, v, debug.Stack())
				}
			}()
			if tr != nil {
				t0 := time.Now()
				fn(col.shards[s], &results[s])
				results[s].dur = time.Since(t0)
				return
			}
			fn(col.shards[s], &results[s])
		}(s)
	}
	wg.Wait()
	if tr != nil {
		tr.Add("fanout", time.Since(begin))
		var busy time.Duration
		for s := range results {
			busy += results[s].dur
		}
		tr.Add("backend_search", busy)
	}
	if c != nil {
		c.AddShards(touched)
		for s := range results {
			st := &results[s].stats
			c.AddCandidates(st.Candidates)
			c.AddSuffixSteps(st.SuffixSteps)
			c.AddIndexBytes(st.IndexBytes)
		}
	}
	for s := range results {
		if results[s].err != nil {
			return nil, results[s].err
		}
	}
	return results, nil
}

// statsOf returns the shard's backend counters when the query is costed,
// nil otherwise (the backends then skip counting entirely).
func statsOf(c *obs.Cost, out *shardResult) *core.QueryStats {
	if c == nil {
		return nil
	}
	return &out.stats
}

// Search reports every occurrence of p with probability strictly greater
// than tau in any document, ordered by (document, position). tau must
// satisfy TauMin ≤ tau ≤ 1.
func (col *Collection) Search(p []byte, tau float64) ([]DocHit, error) {
	return col.SearchObs(nil, nil, p, tau)
}

// SearchObs is Search recording per-stage timings ("fanout",
// "backend_search", "merge") into tr and resource counters (shards
// touched, backend work, merge comparisons) into c; either may be nil.
func (col *Collection) SearchObs(tr *obs.Trace, c *obs.Cost, p []byte, tau float64) ([]DocHit, error) {
	results, err := col.fanOut(tr, c, func(shard []docIndex, out *shardResult) {
		st := statsOf(c, out)
		for _, di := range shard {
			hits, err := di.ix.SearchHitsCosted(p, tau, st)
			if err != nil {
				out.err = err
				return
			}
			for _, h := range hits {
				out.hits = append(out.hits, DocHit{Doc: di.doc, Pos: int(h.Orig), Prob: h.Prob()})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stop := tr.StartStage("merge")
	var merged []DocHit
	for _, r := range results {
		merged = append(merged, r.hits...)
	}
	sortHits(c, merged)
	stop()
	return merged, nil
}

// sortHits orders hits by (document, position) — the canonical Search
// result order — counting sort comparisons into c (nil records nothing).
func sortHits(c *obs.Cost, hits []DocHit) {
	var comps int64
	sort.Slice(hits, func(a, b int) bool {
		comps++
		if hits[a].Doc != hits[b].Doc {
			return hits[a].Doc < hits[b].Doc
		}
		return hits[a].Pos < hits[b].Pos
	})
	c.AddMergeComparisons(comps)
}

// Count returns the total number of occurrences of p with probability
// strictly greater than tau, without materialising positions.
func (col *Collection) Count(p []byte, tau float64) (int, error) {
	return col.CountObs(nil, nil, p, tau)
}

// CountObs is Count recording per-stage timings into tr and resource
// counters into c.
func (col *Collection) CountObs(tr *obs.Trace, c *obs.Cost, p []byte, tau float64) (int, error) {
	results, err := col.fanOut(tr, c, func(shard []docIndex, out *shardResult) {
		st := statsOf(c, out)
		for _, di := range shard {
			n, err := di.ix.SearchCountCosted(p, tau, st)
			if err != nil {
				out.err = err
				return
			}
			out.count += n
		}
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, r := range results {
		total += r.count
	}
	return total, nil
}

// hitLess is the canonical global ordering of top-k results: decreasing
// probability, ties broken by (document, position). It is a total order on
// distinct occurrences, so every shard count produces the identical hit
// sequence.
func hitLess(a, b DocHit) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	if a.Doc != b.Doc {
		return a.Doc < b.Doc
	}
	return a.Pos < b.Pos
}

// topKHeap is a bounded min-heap keeping the k best hits seen so far; the
// root is the currently weakest kept hit. comps counts hitLess evaluations
// for cost attribution (read by mergeTopK after the fold).
type topKHeap struct {
	hits  []DocHit
	comps int64
}

func (h *topKHeap) Len() int           { return len(h.hits) }
func (h *topKHeap) Less(a, b int) bool { h.comps++; return hitLess(h.hits[b], h.hits[a]) }
func (h *topKHeap) Swap(a, b int)      { h.hits[a], h.hits[b] = h.hits[b], h.hits[a] }
func (h *topKHeap) Push(x any)         { h.hits = append(h.hits, x.(DocHit)) }
func (h *topKHeap) Pop() any {
	old := h.hits
	n := len(old)
	x := old[n-1]
	h.hits = old[:n-1]
	return x
}

// TopK reports the k globally most probable occurrences of p across all
// documents, in decreasing probability order (ties by document, then
// position). Every per-document index guarantees completeness only down to
// probability TauMin, so fewer than k hits may be returned.
func (col *Collection) TopK(p []byte, k int) ([]DocHit, error) {
	return col.TopKObs(nil, nil, p, k)
}

// TopKObs is TopK recording per-stage timings into tr and resource counters
// into c.
func (col *Collection) TopKObs(tr *obs.Trace, c *obs.Cost, p []byte, k int) ([]DocHit, error) {
	if k <= 0 {
		return nil, nil
	}
	results, err := col.fanOut(tr, c, func(shard []docIndex, out *shardResult) {
		st := statsOf(c, out)
		for _, di := range shard {
			hits, err := di.ix.SearchTopKCosted(p, k, st)
			if err != nil {
				out.err = err
				return
			}
			for _, h := range hits {
				out.hits = append(out.hits, DocHit{Doc: di.doc, Pos: int(h.Orig), Prob: h.Prob()})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stop := tr.StartStage("merge")
	lists := make([][]DocHit, len(results))
	for i, r := range results {
		lists[i] = r.hits
	}
	merged := mergeTopK(c, k, lists...)
	stop()
	return merged, nil
}

// mergeTopK folds candidate hit lists into the k globally best hits in
// decreasing probability order (ties by document, then position), through a
// bounded min-heap, counting heap comparisons into c (nil records nothing).
// Each list must already contain the true per-document top-k of every
// document it covers — then the merge is exact.
func mergeTopK(c *obs.Cost, k int, lists ...[]DocHit) []DocHit {
	h := topKHeap{hits: make([]DocHit, 0, k+1)}
	for _, list := range lists {
		for _, dh := range list {
			if len(h.hits) < k {
				heap.Push(&h, dh)
				continue
			}
			h.comps++
			if hitLess(dh, h.hits[0]) {
				h.hits[0] = dh
				heap.Fix(&h, 0)
			}
		}
	}
	out := make([]DocHit, len(h.hits))
	for i := len(h.hits) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(DocHit)
	}
	c.AddMergeComparisons(h.comps)
	return out
}

// Validate pre-checks a (pattern, tau) query against the collection's
// construction threshold without touching any shard, returning the same
// sentinel errors a query would: core.ErrEmptyPattern, core.ErrBadPattern,
// core.ErrTauOutOfRange or core.ErrTauBelowTauMin. Servers use it to reject
// malformed requests before paying for the fan-out.
func (col *Collection) Validate(p []byte, tau float64) error {
	return core.ValidateQuery(p, tau, col.tauMin)
}
