package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestBackendSpecRoundTrip: NewBackendSpec normalisation plus the durable
// Encode/DecodeBackendSpec forms, including the legacy bare-kind encoding.
func TestBackendSpecRoundTrip(t *testing.T) {
	cases := []struct {
		kind    string
		epsilon float64
		want    BackendSpec
		wantErr bool
	}{
		{"", 0, BackendSpec{Kind: BackendPlain}, false},
		{BackendPlain, 0, BackendSpec{Kind: BackendPlain}, false},
		{BackendCompressed, 0, BackendSpec{Kind: BackendCompressed}, false},
		{BackendApprox, 0, BackendSpec{Kind: BackendApprox, Epsilon: DefaultEpsilon}, false},
		{BackendApprox, 0.125, BackendSpec{Kind: BackendApprox, Epsilon: 0.125}, false},
		{BackendPlain, 0.1, BackendSpec{}, true}, // epsilon on an exact kind
		{BackendApprox, 1, BackendSpec{}, true},  // out of range
		{BackendApprox, -0.5, BackendSpec{}, true} /* out of range */, {"bogus", 0, BackendSpec{}, true},
	}
	for _, c := range cases {
		got, err := NewBackendSpec(c.kind, c.epsilon)
		if c.wantErr {
			if err == nil {
				t.Errorf("NewBackendSpec(%q, %v) accepted", c.kind, c.epsilon)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewBackendSpec(%q, %v): %v", c.kind, c.epsilon, err)
			continue
		}
		if got != c.want {
			t.Errorf("NewBackendSpec(%q, %v) = %+v, want %+v", c.kind, c.epsilon, got, c.want)
		}
		back, err := DecodeBackendSpec(got.Encode())
		if err != nil || back != got {
			t.Errorf("Decode(Encode(%+v)) = %+v, %v", got, back, err)
		}
	}
	// Legacy sidecar lines (bare kind) keep decoding.
	for _, legacy := range []string{"plain", "compressed"} {
		sp, err := DecodeBackendSpec(legacy)
		if err != nil || sp.Kind != legacy || sp.Epsilon != 0 {
			t.Errorf("DecodeBackendSpec(%q) = %+v, %v", legacy, sp, err)
		}
	}
	for _, bad := range []string{"", "plain 0.5", "approx x", "approx 0.5 0.5", "approx 2"} {
		if _, err := DecodeBackendSpec(bad); err == nil {
			t.Errorf("DecodeBackendSpec(%q) accepted", bad)
		}
	}
}

// TestBackendCapabilities: every backend declares the semantics the serving
// tier dispatches on, and SpecOf round-trips the construction parameters.
func TestBackendCapabilities(t *testing.T) {
	doc := gen.Single(gen.Config{N: 300, Theta: 0.3, Seed: 211})
	for _, c := range []struct {
		spec BackendSpec
		want Capabilities
	}{
		{BackendSpec{Kind: BackendPlain}, Capabilities{Exact: true, TopK: true}},
		{BackendSpec{Kind: BackendCompressed}, Capabilities{Exact: true, TopK: true}},
		{BackendSpec{Kind: BackendApprox, Epsilon: 0.07}, Capabilities{Exact: false, Epsilon: 0.07, TopK: false}},
	} {
		b, err := c.spec.Build(doc, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got := b.Capabilities(); got != c.want {
			t.Errorf("%s capabilities = %+v, want %+v", c.spec, got, c.want)
		}
		if got := SpecOf(b); got != c.spec {
			t.Errorf("SpecOf(%s) = %+v", c.spec, got)
		}
		if got := c.spec.Capabilities(); got != c.want {
			t.Errorf("spec-level capabilities of %s = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// TestApproxBackendContainment is the core layer's cell of the containment
// grid: for every pattern and τ, the ε-index's result set contains the
// exact result set at τ and is contained in the exact result set at τ−ε,
// and every reported probability lies in [truth−ε, truth].
func TestApproxBackendContainment(t *testing.T) {
	doc := gen.Single(gen.Config{N: 1500, Theta: 0.3, Seed: 223})
	const tauMin = 0.1
	exact, err := Build(doc, tauMin)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.1} {
		ab, err := BuildApprox(doc, tauMin, eps)
		if err != nil {
			t.Fatal(err)
		}
		checked, reported := 0, 0
		for _, m := range []int{3, 8, 24} {
			for _, p := range gen.Patterns(doc, 8, m, int64(227+m)) {
				for _, tau := range []float64{0.2, 0.35} {
					got, err := ab.SearchHitsCosted(p, tau, nil)
					if err != nil {
						t.Fatal(err)
					}
					gotSet := make(map[int]bool, len(got))
					for _, h := range got {
						gotSet[int(h.Orig)] = true
					}
					upper, err := exact.Search(p, tau)
					if err != nil {
						t.Fatal(err)
					}
					for _, pos := range upper {
						if !gotSet[pos] {
							t.Fatalf("ε=%v: approx missed %q at %d (true prob > τ=%v)", eps, p, pos, tau)
						}
					}
					lowerHits, err := exact.SearchHitsCosted(p, tau-eps, nil)
					if err != nil {
						t.Fatal(err)
					}
					truth := make(map[int]float64, len(lowerHits))
					for _, h := range lowerHits {
						truth[int(h.Orig)] = h.Prob()
					}
					for _, h := range got {
						tp, ok := truth[int(h.Orig)]
						if !ok {
							t.Fatalf("ε=%v: approx reported %q at %d, absent from the exact set at τ−ε=%v",
								eps, p, h.Orig, tau-eps)
						}
						ap := h.Prob()
						if ap > tp+1e-9 || tp-ap > eps+1e-9 {
							t.Fatalf("reported prob %v outside [truth−ε, truth] = [%v, %v]", ap, tp-eps, tp)
						}
					}
					n, err := ab.SearchCountCosted(p, tau, nil)
					if err != nil || n != len(got) {
						t.Fatalf("SearchCountCosted = %d, %v; SearchHitsCosted found %d", n, err, len(got))
					}
					checked++
					reported += len(got)
				}
			}
		}
		if checked == 0 || reported == 0 {
			t.Fatalf("vacuous containment run: %d queries, %d hits", checked, reported)
		}
	}
}

// TestApproxBackendTopKUnsupported: the capability rejection is the typed
// sentinel, not a panic and not a silent empty result.
func TestApproxBackendTopKUnsupported(t *testing.T) {
	doc := gen.Single(gen.Config{N: 200, Theta: 0.3, Seed: 229})
	ab, err := BuildApprox(doc, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ab.SearchTopKCosted([]byte("AC"), 5, nil); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("SearchTopK error = %v, want ErrUnsupportedQuery", err)
	}
	// The core validation sentinels surface unchanged, so serving layers map
	// them to the same statuses as for exact backends.
	if _, err := ab.SearchHitsCosted(nil, 0.5, nil); !errors.Is(err, ErrEmptyPattern) {
		t.Fatalf("empty pattern error = %v", err)
	}
	if _, err := ab.SearchHitsCosted([]byte("A"), 0.02, nil); !errors.Is(err, ErrTauBelowTauMin) {
		t.Fatalf("tau below tauMin error = %v", err)
	}
	if _, err := ab.SearchHitsCosted([]byte("A"), 1.5, nil); !errors.Is(err, ErrTauOutOfRange) {
		t.Fatalf("tau out of range error = %v", err)
	}
}

// TestApproxBackendPersistRoundTrip: the format-3 envelope round-trips the
// approx backend — parameters and answers — through WriteTo/ReadBackend.
func TestApproxBackendPersistRoundTrip(t *testing.T) {
	doc := gen.Single(gen.Config{N: 900, Theta: 0.3, Seed: 233})
	ab, err := BuildApprox(doc, 0.1, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	loaded, err := ReadBackend(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	lb, ok := loaded.(*ApproxBackend)
	if !ok {
		t.Fatalf("ReadBackend returned %T", loaded)
	}
	if lb.Kind() != BackendApprox || lb.Epsilon() != 0.08 || lb.TauMin() != 0.1 {
		t.Fatalf("round-trip lost parameters: kind=%q ε=%v τmin=%v", lb.Kind(), lb.Epsilon(), lb.TauMin())
	}
	for _, m := range []int{2, 6} {
		for _, p := range gen.Patterns(doc, 6, m, int64(239+m)) {
			want, err := ab.SearchHitsCosted(p, 0.2, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lb.SearchHitsCosted(p, 0.2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("reloaded index answers differently for %q: %d vs %d hits", p, len(got), len(want))
			}
			for i := range got {
				if got[i].Orig != want[i].Orig || got[i].LogProb != want[i].LogProb {
					t.Fatalf("reloaded hit %d of %q differs: %+v vs %+v", i, p, got[i], want[i])
				}
			}
		}
	}
	// A plain-only reader rejects the approx envelope with a typed error.
	if _, err := ReadIndex(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), BackendApprox) {
		t.Fatalf("ReadIndex on an approx file: %v", err)
	}
	// Truncation is an error, never a panic.
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadBackend(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated payload (%d bytes) accepted", cut)
		}
	}
}
