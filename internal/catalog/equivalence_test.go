package catalog

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ustring"
)

// TestShardedMatchesSingleIndex: for a single-document collection, a 4-shard
// catalog must return bit-identical results — positions and probabilities —
// to the unsharded core.Index built directly over the same document. The
// document is always indexed whole, so no floating-point drift is tolerated.
func TestShardedMatchesSingleIndex(t *testing.T) {
	s := gen.Single(gen.Config{N: 4000, Theta: 0.35, Seed: 31})
	single, err := core.Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	col := testCatalog(t, []*ustring.String{s}, 4)

	for _, m := range []int{2, 4, 8, 16} {
		for _, p := range gen.Patterns(s, 10, m, 37) {
			for _, tau := range []float64{0.1, 0.15, 0.3} {
				want := directHits(t, single, 0, p, tau)
				got, err := col.SearchObs(nil, nil, p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q, %v): sharded %v, single %v", p, tau, got, want)
				}
				n, err := col.CountObs(nil, nil, p, tau)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("Count(%q, %v) = %d, want %d", p, tau, n, len(want))
				}
			}
			top, err := single.SearchTopKCosted(p, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantTop := make([]DocHit, 0, len(top))
			for _, h := range top {
				wantTop = append(wantTop, DocHit{Doc: 0, Pos: int(h.Orig), Prob: h.Prob()})
			}
			sort.Slice(wantTop, func(a, b int) bool { return hitLess(wantTop[a], wantTop[b]) })
			gotTop, err := col.TopKObs(nil, nil, p, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) && !(len(gotTop) == 0 && len(wantTop) == 0) {
				t.Fatalf("TopK(%q): sharded %v, single %v", p, gotTop, wantTop)
			}
		}
	}
}

// directHits runs SearchHitsCosted on a bare index and normalises to the
// catalog's (doc, pos) order for comparison.
func directHits(t *testing.T, ix *core.Index, doc int, p []byte, tau float64) []DocHit {
	t.Helper()
	hits, err := ix.SearchHitsCosted(p, tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]DocHit, 0, len(hits))
	for _, h := range hits {
		out = append(out, DocHit{Doc: doc, Pos: int(h.Orig), Prob: h.Prob()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Pos < out[b].Pos })
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestShardCountEquivalence: the acceptance test — a batch of queries
// against a 4-shard catalog must return exactly the same hits as the same
// queries against the unsharded (1-shard) catalog over the same collection,
// and as the per-document indexes built individually.
func TestShardCountEquivalence(t *testing.T) {
	docs := testDocs(t, 2500, 41)
	unsharded := testCatalog(t, docs, 1)
	sharded := testCatalog(t, docs, 4)
	uneven := testCatalog(t, docs, 7)

	// The same per-document truth, built outside the catalog.
	direct := make([]*core.Index, len(docs))
	for i, d := range docs {
		ix, err := core.Build(d, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = ix
	}

	checked := 0
	for _, m := range []int{2, 3, 5, 8} {
		for _, p := range gen.CollectionPatterns(docs, 12, m, 43) {
			for _, tau := range []float64{0.1, 0.2} {
				want, err := unsharded.SearchObs(nil, nil, p, tau)
				if err != nil {
					t.Fatal(err)
				}
				var fromDirect []DocHit
				for i, ix := range direct {
					fromDirect = append(fromDirect, directHits(t, ix, i, p, tau)...)
				}
				if !reflect.DeepEqual(want, fromDirect) && !(len(want) == 0 && len(fromDirect) == 0) {
					t.Fatalf("unsharded catalog diverges from direct indexes on %q", p)
				}
				for name, col := range map[string]*Collection{"4-shard": sharded, "7-shard": uneven} {
					got, err := col.SearchObs(nil, nil, p, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s Search(%q, %v) = %v, want %v", name, p, tau, got, want)
					}
					wantN, err := unsharded.CountObs(nil, nil, p, tau)
					if err != nil {
						t.Fatal(err)
					}
					gotN, err := col.CountObs(nil, nil, p, tau)
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN || gotN != len(want) {
						t.Fatalf("%s Count(%q, %v) = %d, want %d (= %d hits)", name, p, tau, gotN, wantN, len(want))
					}
				}
				checked++
			}
			for _, k := range []int{1, 3, 10} {
				want, err := unsharded.TopKObs(nil, nil, p, k)
				if err != nil {
					t.Fatal(err)
				}
				for name, col := range map[string]*Collection{"4-shard": sharded, "7-shard": uneven} {
					got, err := col.TopKObs(nil, nil, p, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s TopK(%q, %d) = %v, want %v", name, p, k, got, want)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}
}

// TestTopKMatchesBruteForce: the heap merge must agree with sorting the full
// threshold result set at tau = tauMin.
func TestTopKMatchesBruteForce(t *testing.T) {
	docs := testDocs(t, 1500, 53)
	col := testCatalog(t, docs, 4)
	for _, m := range []int{2, 4} {
		for _, p := range gen.CollectionPatterns(docs, 6, m, 59) {
			all, err := col.SearchObs(nil, nil, p, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(all, func(a, b int) bool { return hitLess(all[a], all[b]) })
			for _, k := range []int{1, 2, 5, 100} {
				want := all
				if len(want) > k {
					want = want[:k]
				}
				got, err := col.TopKObs(nil, nil, p, k)
				if err != nil {
					t.Fatal(err)
				}
				// TopK completeness holds down to tauMin; Search at
				// tau = tauMin excludes hits within Eps of the threshold,
				// so compare only the common prefix when TopK found more.
				if len(got) < len(want) {
					t.Fatalf("TopK(%q, %d) returned %d hits, brute force %d", p, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("TopK(%q, %d)[%d] = %+v, want %+v", p, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
