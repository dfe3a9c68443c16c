package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
)

func buildTestIndex(t testing.TB, n int, theta float64, seed int64) *Index {
	t.Helper()
	s := gen.Single(gen.Config{N: n, Theta: theta, Seed: seed})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestTopKMatchesSortedFullResults: the top-k list must equal the first k
// entries of the complete occurrence list sorted by probability.
func TestTopKMatchesSortedFullResults(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 223)
	s := ix.Source()
	for _, m := range []int{2, 3, 5} {
		for _, p := range gen.Patterns(s, 10, m, 227) {
			// Full list at the lowest supported threshold.
			full, err := ix.SearchHitsCosted(p, ix.TauMin(), nil)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(full, func(a, b int) bool {
				return full[a].LogProb > full[b].LogProb
			})
			for _, k := range []int{1, 3, 10, len(full) + 5} {
				top, err := ix.SearchTopKCosted(p, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := k
				if want > len(full) {
					want = len(full)
				}
				// Hits below tauMin may legally surface in TopK (they exist
				// in the transformation); only compare the prefix where the
				// full list is authoritative.
				if len(top) < want {
					t.Fatalf("TopK(%q, %d) returned %d hits, want at least %d",
						p, k, len(top), want)
				}
				for i := 0; i < want; i++ {
					if math.Abs(top[i].LogProb-full[i].LogProb) > 1e-9 {
						t.Fatalf("TopK(%q)[%d] prob %v, want %v", p, i,
							top[i].Prob(), full[i].Prob())
					}
				}
			}
		}
	}
}

func TestTopKOrderingAndUniqueness(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 229)
	for _, m := range []int{2, 4, 18} { // 18 exercises the long-pattern path
		for _, p := range gen.Patterns(ix.Source(), 10, m, 233) {
			top, err := ix.SearchTopKCosted(p, 20, nil)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			for i, h := range top {
				if i > 0 && h.LogProb > top[i-1].LogProb+1e-9 {
					t.Fatalf("TopK not sorted at %d: %v > %v", i, h.Prob(), top[i-1].Prob())
				}
				if seen[h.Orig] {
					t.Fatalf("TopK duplicated position %d", h.Orig)
				}
				seen[h.Orig] = true
				// Every reported probability must be exact.
				want := ix.Source().OccurrenceProb(p, int(h.Orig))
				if math.Abs(h.Prob()-want) > 1e-9 {
					t.Fatalf("TopK prob %v != oracle %v", h.Prob(), want)
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	ix := buildTestIndex(t, 500, 0.3, 239)
	if got, err := ix.SearchTopKCosted([]byte("A"), 0, nil); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
	if _, err := ix.SearchTopKCosted(nil, 5, nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if got, err := ix.SearchTopKCosted([]byte("zz"), 5, nil); err != nil || got != nil {
		t.Errorf("missing pattern: %v, %v", got, err)
	}
}

func TestCountMatchesSearch(t *testing.T) {
	ix := buildTestIndex(t, 3000, 0.4, 241)
	for _, m := range []int{1, 3, 6, 16} {
		for _, p := range gen.Patterns(ix.Source(), 10, m, 251) {
			for _, tau := range []float64{0.1, 0.3} {
				positions, err := ix.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				n, err := ix.SearchCountCosted(p, tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(positions) {
					t.Fatalf("Count(%q, %v) = %d, Search found %d", p, tau, n, len(positions))
				}
			}
		}
	}
	if _, err := ix.SearchCountCosted([]byte("A"), 0.01, nil); err == nil {
		t.Error("tau below tauMin accepted by Count")
	}
}

// TestCountAllocatesNoMoreThanSearch: a count runs the threshold traversal
// without materialising its hits, so it may never allocate more than the
// search that does. A frequent one-letter pattern makes a per-hit
// allocation show as thousands.
func TestCountAllocatesNoMoreThanSearch(t *testing.T) {
	ix := buildTestIndex(t, 20000, 0.3, 5)
	p := []byte("A")
	const tau = 0.1
	n, err := ix.SearchCountCosted(p, tau, nil)
	if err != nil || n < 1000 {
		t.Fatalf("count = %d, %v; want a frequent pattern", n, err)
	}
	var st QueryStats
	search := testing.AllocsPerRun(5, func() { _, _ = ix.SearchHitsCosted(p, tau, &st) })
	count := testing.AllocsPerRun(5, func() { _, _ = ix.SearchCountCosted(p, tau, &st) })
	if count > search {
		t.Fatalf("count allocates %v per call, search %v", count, search)
	}
}
