package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// Semantic property tests (testing/quick) on the query invariants that hold
// for any uncertain string and pattern.

// Property: answers are monotone in τ — raising the threshold can only
// shrink the result set, and every surviving position appears at every lower
// threshold.
func TestPropertyMonotoneInTau(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := gen.Single(gen.Config{N: 300 + rng.Intn(500), Theta: 0.2 + 0.4*rng.Float64(), Seed: seed})
		ix, err := Build(s, 0.1)
		if err != nil {
			return false
		}
		p := gen.Patterns(s, 1, 1+rng.Intn(6), seed+1)[0]
		taus := []float64{0.1, 0.15, 0.25, 0.4, 0.7}
		var prev map[int]bool
		for _, tau := range taus {
			got, err := ix.Search(p, tau)
			if err != nil {
				return false
			}
			cur := map[int]bool{}
			for _, pos := range got {
				cur[pos] = true
			}
			if prev != nil {
				// prev is the lower threshold: cur ⊆ prev.
				for pos := range cur {
					if !prev[pos] {
						t.Logf("position %d at tau=%v missing at lower tau", pos, tau)
						return false
					}
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: extending the pattern can only shrink the match set — every
// occurrence of p+c above τ is an occurrence of p above τ at the same
// position.
func TestPropertyPatternExtensionShrinks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := gen.Single(gen.Config{N: 300 + rng.Intn(500), Theta: 0.3, Seed: seed})
		ix, err := Build(s, 0.1)
		if err != nil {
			return false
		}
		long := gen.Patterns(s, 1, 2+rng.Intn(6), seed+2)[0]
		short := long[:len(long)-1]
		tau := 0.15
		longSet, err := ix.Search(long, tau)
		if err != nil {
			return false
		}
		shortGot, err := ix.Search(short, tau)
		if err != nil {
			return false
		}
		shortSet := map[int]bool{}
		for _, pos := range shortGot {
			shortSet[pos] = true
		}
		for _, pos := range longSet {
			if !shortSet[pos] {
				t.Logf("extension gained position %d", pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: τmin is query-invisible — indexes built at different τmin agree
// on every τ both support.
func TestPropertyTauMinInvisible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := gen.Single(gen.Config{N: 200 + rng.Intn(400), Theta: 0.4, Seed: seed})
		loose, err := Build(s, 0.05)
		if err != nil {
			return false
		}
		tight, err := Build(s, 0.15)
		if err != nil {
			return false
		}
		p := gen.Patterns(s, 1, 1+rng.Intn(5), seed+3)[0]
		for _, tau := range []float64{0.15, 0.3, 0.6} {
			a, err := loose.Search(p, tau)
			if err != nil {
				return false
			}
			b, err := tight.Search(p, tau)
			if err != nil {
				return false
			}
			if !equalIntSlices(a, b) {
				t.Logf("tauMin leak: %v vs %v at tau=%v", a, b, tau)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: reported probabilities are insensitive to unrelated positions —
// perturbing the string far from a match does not change its probability.
func TestPropertyLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	s := gen.Single(gen.Config{N: 1000, Theta: 0.3, Seed: 521})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p := gen.Patterns(s, 1, 4, 523)[0]
	hits, err := ix.SearchHitsCosted(p, 0.1, nil)
	if err != nil || len(hits) == 0 {
		t.Skip("no hits to test locality on")
	}
	// Perturb a position at least 10 away from every hit window.
	perturb := -1
	for trial := 0; trial < 100; trial++ {
		cand := rng.Intn(s.Len())
		farFromAll := true
		for _, h := range hits {
			if cand >= int(h.Orig)-10 && cand <= int(h.Orig)+len(p)+10 {
				farFromAll = false
				break
			}
		}
		if farFromAll {
			perturb = cand
			break
		}
	}
	if perturb < 0 {
		t.Skip("string too dense with hits")
	}
	mod := s.Clone()
	mod.Pos[perturb] = mod.Pos[perturb][:1]
	mod.Pos[perturb][0].Prob = 1
	ix2, err := Build(mod, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hits2, err := ix2.SearchHitsCosted(p, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	probs := map[int32]float64{}
	for _, h := range hits2 {
		probs[h.Orig] = h.LogProb
	}
	for _, h := range hits {
		if lp, ok := probs[h.Orig]; !ok || lp != h.LogProb {
			t.Fatalf("perturbing position %d changed hit at %d", perturb, h.Orig)
		}
	}
}
