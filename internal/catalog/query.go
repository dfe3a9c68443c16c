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

// docQuery runs one query against one document, appending its answer to
// out and its backend counters to st (nil when the query is not costed).
type docQuery func(di *docIndex, st *core.QueryStats, out *shardResult) error

// fanOut scans every non-empty shard concurrently, calling fn for each
// document that may hold p, and returns the per-shard results in shard
// order. A document whose pair signature does not cover p's holds no
// window of its transformed text equal to p, so it is skipped
// without a backend call; documents without a signature are always
// searched. Collections are immutable, so the only synchronisation is the
// join. With a non-nil trace it records two stages: "fanout" (wall time of
// the whole scatter/join) and "backend_search" (the sum of per-shard scan
// time, i.e. the work the fan-out parallelised). With a non-nil cost it
// counts the shards that ran and sums the per-shard backend stats at the
// join, each signature test counted as core.SignatureBytes of index read.
// A panic inside a shard becomes that shard's error, carrying the panic
// value and stack, so one bad index fails the query rather than the
// process.
func (col *Collection) fanOut(tr *obs.Trace, c *obs.Cost, p []byte, fn docQuery) ([]shardResult, error) {
	psig := core.PatternSignature(p)
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
				scanShard(col.shards[s], &psig, c != nil, &results[s], fn)
				results[s].dur = time.Since(t0)
				return
			}
			scanShard(col.shards[s], &psig, c != nil, &results[s], fn)
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

// scanShard runs fn over the shard's documents whose signature covers
// psig, stopping at the first error. With costed set, fn receives the
// shard's backend counters (nil otherwise, so the backends skip counting)
// and the signature tests are added to them.
func scanShard(shard []docIndex, psig *core.PairSignature, costed bool, out *shardResult, fn docQuery) {
	var st *core.QueryStats
	if costed {
		st = &out.stats
	}
	tests := int64(0)
	for i := range shard {
		di := &shard[i]
		if di.hasSig {
			tests++
			if !di.sig.Covers(psig) {
				continue
			}
		}
		if err := fn(di, st, out); err != nil {
			out.err = err
			break
		}
	}
	if st != nil {
		st.IndexBytes += tests * core.SignatureBytes
	}
}

// SearchObs reports every occurrence of p with probability strictly greater
// than tau in any document, ordered by (document, position). tau must
// satisfy TauMin ≤ tau ≤ 1. It records per-stage timings ("fanout",
// "backend_search", "merge") into tr and resource counters (shards
// touched, backend work, merge comparisons) into c; either may be nil.
// The query is validated before any document is skipped, so a malformed
// one fails with the backends' sentinel errors even when no document could
// hold it.
func (col *Collection) SearchObs(tr *obs.Trace, c *obs.Cost, p []byte, tau float64) ([]DocHit, error) {
	if err := col.Validate(p, tau); err != nil {
		return nil, err
	}
	results, err := col.fanOut(tr, c, p, func(di *docIndex, st *core.QueryStats, out *shardResult) error {
		hits, err := di.ix.SearchHitsCosted(p, tau, st)
		for _, h := range hits {
			out.hits = append(out.hits, DocHit{Doc: di.doc, Pos: int(h.Orig), Prob: h.Prob()})
		}
		return err
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

// CountObs returns the total number of occurrences of p with probability
// strictly greater than tau, without materialising positions. It records
// per-stage timings into tr and resource counters into c, validating the
// query first as SearchObs does.
func (col *Collection) CountObs(tr *obs.Trace, c *obs.Cost, p []byte, tau float64) (int, error) {
	if err := col.Validate(p, tau); err != nil {
		return 0, err
	}
	results, err := col.fanOut(tr, c, p, func(di *docIndex, st *core.QueryStats, out *shardResult) error {
		n, err := di.ix.SearchCountCosted(p, tau, st)
		out.count += n
		return err
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

// TopKObs reports the k globally most probable occurrences of p across all
// documents, in decreasing probability order (ties by document, then
// position). Every per-document index guarantees completeness only down to
// probability TauMin, so fewer than k hits may be returned. It records
// per-stage timings into tr and resource counters into c. The pattern is
// validated as the backends' top-k validates it (no threshold applies)
// before any document is skipped.
func (col *Collection) TopKObs(tr *obs.Trace, c *obs.Cost, p []byte, k int) ([]DocHit, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := core.ValidateQuery(p, 1, 0); err != nil {
		return nil, err
	}
	results, err := col.fanOut(tr, c, p, func(di *docIndex, st *core.QueryStats, out *shardResult) error {
		hits, err := di.ix.SearchTopKCosted(p, k, st)
		for _, h := range hits {
			out.hits = append(out.hits, DocHit{Doc: di.doc, Pos: int(h.Orig), Prob: h.Prob()})
		}
		return err
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
	// Size the heap by what can reach it, not by k: a server allows k in
	// the thousands while most queries return a handful of hits.
	size := 0
	for _, list := range lists {
		size += len(list)
	}
	h := topKHeap{hits: make([]DocHit, 0, min(k, size)+1)}
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
