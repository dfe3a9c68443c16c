package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/ustring"
)

// Adversarial and boundary-condition tests for the engine.

// TestAllBelowTauMin: a string whose every character probability is below
// τmin produces an empty transformation; the index must stay functional.
func TestAllBelowTauMin(t *testing.T) {
	s := &ustring.String{Pos: []ustring.Position{
		{{Char: 'a', Prob: 0.3}, {Char: 'b', Prob: 0.3}, {Char: 'c', Prob: 0.4}},
		{{Char: 'a', Prob: 0.25}, {Char: 'b', Prob: 0.25}, {Char: 'c', Prob: 0.5}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(s, 0.6) // every single character is below 0.6
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search([]byte("a"), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("Search on empty transformation = %v, want nil", got)
	}
	if n, err := ix.SearchCountCosted([]byte("ab"), 0.7, nil); err != nil || n != 0 {
		t.Errorf("Count = %d, %v", n, err)
	}
	if top, err := ix.SearchTopKCosted([]byte("a"), 3, nil); err != nil || top != nil {
		t.Errorf("TopK = %v, %v", top, err)
	}
}

// TestSinglePosition: the smallest possible uncertain string.
func TestSinglePosition(t *testing.T) {
	s := &ustring.String{Pos: []ustring.Position{
		{{Char: 'x', Prob: 0.7}, {Char: 'y', Prob: 0.3}},
	}}
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search([]byte("x"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Search(x) = %v, want [0]", got)
	}
	got, err = ix.Search([]byte("y"), 0.5)
	if err != nil || got != nil {
		t.Errorf("Search(y, .5) = %v, %v; want nil", got, err)
	}
	got, err = ix.Search([]byte("xy"), 0.1)
	if err != nil || got != nil {
		t.Errorf("pattern longer than string = %v, %v", got, err)
	}
}

// TestPatternAtLevelBoundaries exercises m = levels−1, levels, levels+1 and
// the block-level upper boundary explicitly against the oracle.
func TestPatternAtLevelBoundaries(t *testing.T) {
	s := gen.Single(gen.Config{N: 2000, Theta: 0.15, Seed: 569}) // long factors
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lvl := ix.Engine().ShortLevels()
	_, longHi := ix.Engine().LongLevels()
	for _, m := range []int{lvl - 1, lvl, lvl + 1, longHi, longHi + 1, longHi + 5} {
		if m < 1 || m > s.Len() {
			continue
		}
		for _, p := range gen.Patterns(s, 8, m, int64(600+m)) {
			want := s.MatchPositions(p, 0.12)
			got, err := ix.Search(p, 0.12)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIntSlices(got, want) {
				t.Fatalf("m=%d (levels=%d, longHi=%d): got %v want %v",
					m, lvl, longHi, got, want)
			}
		}
	}
}

// TestUniformCertainString: a fully deterministic single-letter string is
// the worst case for suffix machinery (maximal LCPs) and for duplicate
// elimination (every factor overlaps).
func TestUniformCertainString(t *testing.T) {
	n := 300
	pos := make([]ustring.Position, n)
	for i := range pos {
		pos[i] = ustring.Position{{Char: 'a', Prob: 1}}
	}
	s := &ustring.String{Pos: pos}
	ix, err := Build(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 10, 50, 299, 300} {
		p := make([]byte, m)
		for i := range p {
			p[i] = 'a'
		}
		got, err := ix.Search(p, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n-m+1 {
			t.Fatalf("m=%d: %d matches, want %d", m, len(got), n-m+1)
		}
	}
}

// TestNearOneProbabilities: probabilities asymptotically close to 1 must
// not accumulate into false threshold crossings over long windows.
func TestNearOneProbabilities(t *testing.T) {
	n := 200
	pos := make([]ustring.Position, n)
	for i := range pos {
		pos[i] = ustring.Position{
			{Char: 'a', Prob: 1 - 1e-4},
			{Char: 'b', Prob: 1e-4},
		}
	}
	s := &ustring.String{Pos: pos}
	ix, err := Build(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A window of length m has probability (1−1e-4)^m; for m=200 that is
	// ≈ 0.9802. It must pass τ=0.97 and fail τ=0.99.
	p := make([]byte, n)
	for i := range p {
		p[i] = 'a'
	}
	got, err := ix.Search(p, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("full-window match at τ=.97: %v", got)
	}
	got, err = ix.Search(p, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("full window must fail τ=.99: %v", got)
	}
}

// The deep-underflow companion test (products near 1e-19 over 400-character
// windows) lives in internal/special, where no Lemma 2 transformation is
// involved: a general-string τmin that low admits combinatorially many
// factors by design (the (1/τmin)² bound is the paper's own warning).
