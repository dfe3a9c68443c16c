package core

import (
	"container/heap"
	"sort"

	"repro/internal/prob"
)

// This file extends the index with the query variations the paper lists as
// future work ("variations of the string searching problem satisfying
// diverse query constraints"). Both fall out of the same recursive
// range-maximum machinery:
//
//   - TopKCosted: the k most probable occurrences, best-first, without a
//     threshold. The recursion that proves O(m + occ) for threshold queries
//     turns into a best-first search over suffix-range fragments with a
//     max-heap, giving O(m + k log k).
//   - CountCosted (engine.go): the number of occurrences above τ, counted
//     on the threshold traversal without materialising positions.

// fragment is a pending suffix-range piece in the best-first search.
type fragment struct {
	l, r int
	j    int     // argmax within [l, r]
	lp   float64 // value at j
}

// fragHeap is a max-heap of fragments ordered by probability.
type fragHeap []fragment

func (h fragHeap) Len() int           { return len(h) }
func (h fragHeap) Less(a, b int) bool { return h[a].lp > h[b].lp }
func (h fragHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *fragHeap) Push(x any)        { *h = append(*h, x.(fragment)) }
func (h *fragHeap) Pop() any          { old := *h; n := len(old); f := old[n-1]; *h = old[:n-1]; return f }

// TopKCosted returns the k most probable non-duplicate occurrences of p,
// in the canonical order: decreasing probability, ties by increasing
// original position, accumulating cost counters into st (nil records
// nothing). The canonical order makes the result a pure function of the
// occurrence set, so every backend (and every shard layout above) reports
// the identical top-k sequence. Only short patterns (m ≤ log N) run
// best-first; longer patterns fall back to a full threshold scan at τ = 0
// followed by selection.
func (e *Engine) TopKCosted(p []byte, k int, st *QueryStats) ([]Hit, error) {
	if err := e.validate(p, 1); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	lo, hi, ok, probes := e.tx.RangeCount(p)
	st.add(0, int64(probes), int64(probes)*int64(4+len(p)))
	if !ok {
		return nil, nil
	}
	m := len(p)
	if m > e.levels {
		return e.topKLong(m, lo, hi, k, st), nil
	}
	level := e.short[m-1]
	var h fragHeap
	var pushes int64
	push := func(l, r int) {
		if l > r {
			return
		}
		pushes++
		j := level.Max(l, r)
		if lp := e.ci(m, j); lp != prob.LogZero {
			heap.Push(&h, fragment{l, r, j, lp})
		}
	}
	push(lo, hi)
	// Best-first pops arrive in non-increasing probability order (a
	// sub-fragment's maximum never exceeds its parent's). Gathering every
	// hit tied with the k-th value before cutting makes the boundary
	// deterministic: the final sort breaks probability ties by position, so
	// which tied entry the heap happened to surface first cannot change the
	// reported set. Cost is O((k + ties) log) where ties counts the hits
	// sharing the k-th value exactly — the price of the canonical order
	// cannot be avoided with early termination, because a smaller-position
	// tie can still be hidden inside an unexpanded fragment. Worst case
	// (all occurrences at probability 1, e.g. a fully certain region) this
	// matches a threshold query's O(occ), never more.
	var out []Hit
	for h.Len() > 0 {
		if len(out) >= k && h[0].lp != out[k-1].LogProb {
			break
		}
		f := heap.Pop(&h).(fragment)
		out = append(out, e.hitAt(f.j, f.lp))
		push(f.l, f.j-1)
		push(f.j+1, f.r)
	}
	st.add(pushes, pushes, pushes*plainCandidateBytes)
	sortHitsByProb(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// topKLong selects the k best hits from a threshold scan of the suffix
// range at τ = 0, which drops exactly the LogZero windows.
func (e *Engine) topKLong(m, lo, hi, k int, st *QueryStats) []Hit {
	var out []Hit
	e.queryScan(m, lo, hi, 0, func(j int, lp float64) { out = append(out, e.hitAt(j, lp)) }, st)
	sortHitsByProb(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sortHitsByProb orders hits by decreasing probability (stable on position
// for determinism).
func sortHitsByProb(hs []Hit) {
	sort.Slice(hs, func(a, b int) bool {
		if hs[a].LogProb != hs[b].LogProb {
			return hs[a].LogProb > hs[b].LogProb
		}
		return hs[a].Orig < hs[b].Orig
	})
}
