package catalog

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// hitSet reduces DocHits to their (doc, pos) identity.
func hitSet(hits []DocHit) map[[2]int]bool {
	set := make(map[[2]int]bool, len(hits))
	for _, h := range hits {
		set[[2]int{h.Doc, h.Pos}] = true
	}
	return set
}

// TestCatalogApproxContainment is the catalog layer's cell of the
// containment grid: a mixed catalog holding the same documents once under
// the plain backend and once under the approx backend must satisfy
// exact(τ) ⊆ approx(τ) ⊆ exact(τ−ε) through the sharded fan-out and merge.
func TestCatalogApproxContainment(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2000, Theta: 0.3, Seed: 241})
	const eps = 0.05
	c := New(Options{TauMin: 0.1, Shards: 3})
	exact, err := c.Add("exact", docs)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := c.AddWithSpec("approx", docs, core.BackendSpec{Kind: core.BackendApprox, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Backend() != core.BackendApprox || approx.Epsilon() != eps {
		t.Fatalf("approx collection spec = %s", approx.Spec())
	}
	if exact.Epsilon() != 0 {
		t.Fatalf("exact collection reports ε=%v", exact.Epsilon())
	}
	checked, reported := 0, 0
	for _, m := range []int{2, 4, 9} {
		for _, p := range gen.CollectionPatterns(docs, 6, m, int64(251+m)) {
			for _, tau := range []float64{0.2, 0.35} {
				got, err := approx.SearchObs(nil, nil, p, tau)
				if err != nil {
					t.Fatal(err)
				}
				upper, err := exact.SearchObs(nil, nil, p, tau)
				if err != nil {
					t.Fatal(err)
				}
				lower, err := exact.SearchObs(nil, nil, p, tau-eps)
				if err != nil {
					t.Fatal(err)
				}
				gotSet, lowerSet := hitSet(got), hitSet(lower)
				for _, h := range upper {
					if !gotSet[[2]int{h.Doc, h.Pos}] {
						t.Fatalf("Search(%q, %v): approx missed exact hit %+v", p, tau, h)
					}
				}
				for _, h := range got {
					if !lowerSet[[2]int{h.Doc, h.Pos}] {
						t.Fatalf("Search(%q, %v): approx hit %+v below τ−ε", p, tau, h)
					}
				}
				n, err := approx.CountObs(nil, nil, p, tau)
				if err != nil || n != len(got) {
					t.Fatalf("Count(%q, %v) = %d, %v; Search found %d", p, tau, n, err, len(got))
				}
				checked++
				reported += len(got)
			}
		}
	}
	if checked == 0 || reported == 0 {
		t.Fatalf("vacuous containment run: %d queries, %d hits", checked, reported)
	}
	// TopK on the approx collection is a typed capability rejection
	// surfacing through the fan-out.
	if _, err := approx.TopKObs(nil, nil, []byte("AC"), 3); !errors.Is(err, core.ErrUnsupportedQuery) {
		t.Fatalf("TopK on approx collection: %v, want ErrUnsupportedQuery", err)
	}
	// The exact collection in the same catalog keeps full top-k support.
	if _, err := exact.TopKObs(nil, nil, []byte("AC"), 3); err != nil {
		t.Fatalf("TopK on exact collection: %v", err)
	}
}

// TestCatalogApproxSaveLoad: the cache round-trips the approx collection —
// manifest ε, format-3 document envelopes — and the loaded collection
// answers identically.
func TestCatalogApproxSaveLoad(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 1200, Theta: 0.3, Seed: 257})
	opts := Options{TauMin: 0.1, Shards: 2}
	c := New(opts)
	orig, err := c.AddWithSpec("a", docs, core.BackendSpec{Kind: core.BackendApprox, Epsilon: 0.07})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loadedCat, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := loadedCat.Get("a")
	if !ok {
		t.Fatal("collection missing after Load")
	}
	if loaded.Spec() != orig.Spec() {
		t.Fatalf("loaded spec %s, want %s", loaded.Spec(), orig.Spec())
	}
	infos := loadedCat.Stats()
	if len(infos) != 1 || infos[0].Backend != core.BackendApprox || infos[0].Epsilon != 0.07 {
		t.Fatalf("loaded stats lost the spec: %+v", infos)
	}
	hits := 0
	for _, m := range []int{2, 5} {
		for _, p := range gen.CollectionPatterns(docs, 5, m, int64(263+m)) {
			want, err := orig.SearchObs(nil, nil, p, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.SearchObs(nil, nil, p, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("Search(%q): loaded %d hits, original %d", p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Search(%q) hit %d: loaded %+v, original %+v", p, i, got[i], want[i])
				}
			}
			hits += len(want)
		}
	}
	if hits == 0 {
		t.Fatal("vacuous save/load check: no hits")
	}
}
