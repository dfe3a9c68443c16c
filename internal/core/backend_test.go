package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/ustring"
)

// hitView is the backend-independent shape of a hit: which tied suffix-array
// entry a backend surfaces per original position may differ, but the
// position and probability must be bit-identical.
type hitView struct {
	Orig    int32
	LogProb float64
}

func views(hits []Hit) []hitView {
	out := make([]hitView, len(hits))
	for i, h := range hits {
		out[i] = hitView{Orig: h.Orig, LogProb: h.LogProb}
	}
	return out
}

// positionsOf is the Problem 1 answer carried by hits: their original
// positions in increasing order, nil when there are none.
func positionsOf(hits []Hit) []int {
	var out []int
	for _, h := range hits {
		out = append(out, int(h.Orig))
	}
	sort.Ints(out)
	return out
}

func sortedViews(hits []Hit) []hitView {
	out := views(hits)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Orig != out[b].Orig {
			return out[a].Orig < out[b].Orig
		}
		return out[a].LogProb < out[b].LogProb
	})
	return out
}

// checkBackendGrid drives both backends through the full query grid —
// positions, hits, top-k and counts over a spread of pattern lengths,
// thresholds and k — and requires bit-identical answers.
func checkBackendGrid(t *testing.T, s *ustring.String, plain *Index, comp *CompressedIndex, tauMin float64) {
	t.Helper()
	taus := []float64{tauMin, tauMin * 1.5, 0.3, 0.6, 0.95}
	// Cross log N: short RMQ levels, the blocking scheme, and (via the tiny
	// LongCap used by one caller) the scan fallback all get exercised.
	for _, m := range []int{1, 2, 3, 5, 8, 13, 21, 40} {
		for _, p := range gen.Patterns(s, 6, m, int64(101+m)) {
			for _, tau := range taus {
				var searchStats, countStats QueryStats
				wantPos, err := plain.Search(p, tau)
				if err != nil {
					t.Fatal(err)
				}
				wantHits, err := plain.SearchHitsCosted(p, tau, &searchStats)
				if err != nil {
					t.Fatal(err)
				}
				gotHits, err := comp.SearchHitsCosted(p, tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotPos := positionsOf(gotHits)
				if !reflect.DeepEqual(wantPos, gotPos) {
					t.Fatalf("Search(%q, %v): plain %v, compressed %v", p, tau, wantPos, gotPos)
				}
				if !reflect.DeepEqual(sortedViews(wantHits), sortedViews(gotHits)) {
					t.Fatalf("SearchHits(%q, %v): plain %v, compressed %v",
						p, tau, sortedViews(wantHits), sortedViews(gotHits))
				}
				wantN, err := plain.SearchCountCosted(p, tau, &countStats)
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := comp.SearchCountCosted(p, tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				if wantN != gotN || wantN != len(wantPos) {
					t.Fatalf("SearchCount(%q, %v): plain %d, compressed %d, %d positions",
						p, tau, wantN, gotN, len(wantPos))
				}
				// Count runs the threshold traversal itself, so it must
				// cost exactly what the search costs in every length regime.
				if countStats != searchStats {
					t.Fatalf("plain (%q, %v): count stats %+v, search stats %+v",
						p, tau, countStats, searchStats)
				}
			}
			for _, k := range []int{1, 2, 5, 100} {
				wantTop, err := plain.SearchTopKCosted(p, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotTop, err := comp.SearchTopKCosted(p, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Top-k is canonically ordered on both sides: compare the
				// exact sequences.
				if !reflect.DeepEqual(views(wantTop), views(gotTop)) {
					t.Fatalf("SearchTopK(%q, %d): plain %v, compressed %v",
						p, k, views(wantTop), views(gotTop))
				}
			}
		}
	}
}

// TestBackendEquivalence: the tentpole acceptance at the core level — the
// compressed backend answers the full query grid bit-identically to the
// plain backend over the same document.
func TestBackendEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    gen.Config
		tauMin float64
	}{
		{"small", gen.Config{N: 900, Theta: 0.3, Seed: 7}, 0.1},
		{"larger", gen.Config{N: 5000, Theta: 0.35, Seed: 11}, 0.1},
		{"dense-uncertainty", gen.Config{N: 1500, Theta: 0.6, Seed: 13}, 0.15},
		{"correlated", gen.Config{N: 1200, Theta: 0.4, Seed: 17, Correlations: 25}, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := gen.Single(tc.cfg)
			plain, err := Build(s, tc.tauMin)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := BuildCompressed(s, tc.tauMin)
			if err != nil {
				t.Fatal(err)
			}
			checkBackendGrid(t, s, plain, comp, tc.tauMin)
		})
	}
}

// TestBackendEquivalenceScanFallback pins the plain backend to a tiny long
// cap so patterns beyond it take the linear-scan path, and checks the
// compressed backend still agrees.
func TestBackendEquivalenceScanFallback(t *testing.T) {
	s := gen.Single(gen.Config{N: 2000, Theta: 0.3, Seed: 23})
	plain, err := Build(s, 0.1, WithLongCap(14))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildCompressed(s, 0.1, WithLongCap(14))
	if err != nil {
		t.Fatal(err)
	}
	checkBackendGrid(t, s, plain, comp, 0.1)
}

// buildKind builds the named backend kind with its default parameters.
func buildKind(kind string, s *ustring.String, tauMin float64, opts ...Option) (Backend, error) {
	sp, err := NewBackendSpec(kind, 0)
	if err != nil {
		return nil, err
	}
	return sp.Build(s, tauMin, opts...)
}

// TestBackendBuildDispatch covers the kind handling of building from a
// NewBackendSpec.
func TestBackendBuildDispatch(t *testing.T) {
	s := gen.Single(gen.Config{N: 300, Theta: 0.3, Seed: 29})
	for kind, want := range map[string]string{
		"":                BackendPlain,
		BackendPlain:      BackendPlain,
		BackendCompressed: BackendCompressed,
	} {
		b, err := buildKind(kind, s, 0.1)
		if err != nil {
			t.Fatalf("build %q: %v", kind, err)
		}
		if b.Kind() != want {
			t.Fatalf("build %q: Kind() = %q, want %q", kind, b.Kind(), want)
		}
	}
	if _, err := buildKind("zlib", s, 0.1); err == nil {
		t.Fatal("an unknown kind was built")
	}
	if _, err := ParseBackend("zlib"); err == nil {
		t.Fatal("ParseBackend accepted an unknown kind")
	}
}

// TestBackendPersistRoundTrip writes both backends through the versioned
// envelope and reloads them with ReadBackend: kinds, sampling rate, and
// every query answer must survive the round trip.
func TestBackendPersistRoundTrip(t *testing.T) {
	s := gen.Single(gen.Config{N: 1200, Theta: 0.35, Seed: 31, Correlations: 10})
	for _, kind := range []string{BackendPlain, BackendCompressed} {
		b, err := buildKind(kind, s, 0.1, WithSampleRate(16))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadBackend(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadBackend(%s): %v", kind, err)
		}
		if loaded.Kind() != kind {
			t.Fatalf("round trip changed kind: %q → %q", kind, loaded.Kind())
		}
		if cx, ok := loaded.(*CompressedIndex); ok && cx.SampleRate() != 16 {
			t.Fatalf("round trip lost the sample rate: got %d", cx.SampleRate())
		}
		for _, m := range []int{2, 4, 9} {
			for _, p := range gen.Patterns(s, 4, m, int64(211+m)) {
				want, err := b.SearchHitsCosted(p, 0.1, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.SearchHitsCosted(p, 0.1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sortedViews(want), sortedViews(got)) {
					t.Fatalf("%s: reloaded index diverges on %q", kind, p)
				}
			}
		}
	}
}

// TestReadIndexRejectsCompressed: the plain-only loader must name the
// problem instead of misinterpreting a compressed file.
func TestReadIndexRejectsCompressed(t *testing.T) {
	s := gen.Single(gen.Config{N: 300, Theta: 0.3, Seed: 37})
	comp, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := comp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadIndex accepted a compressed index file")
	}
}

// TestCompressedSpace: the reason the backend exists — on a realistically
// sized document the compressed representation must be at least 2× smaller
// than the plain one.
func TestCompressedSpace(t *testing.T) {
	s := gen.Single(gen.Config{N: 4000, Theta: 0.35, Seed: 41})
	plain, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildCompressed(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pb, cb := plain.Bytes(), comp.Bytes()
	if cb*2 > pb {
		t.Fatalf("compressed backend is %d bytes vs plain %d — less than 2× smaller", cb, pb)
	}
	t.Logf("plain %d bytes, compressed %d bytes (%.1fx)", pb, cb, float64(pb)/float64(cb))
}
