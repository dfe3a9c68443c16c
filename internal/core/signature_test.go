package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/ustring"
)

// signatureRejectsSound fails t when sig rules p out although the index
// reports an occurrence of p at τmin through Search, Count or TopK. It
// returns whether sig ruled p out.
func signatureRejectsSound(t *testing.T, ix *Index, p []byte) bool {
	t.Helper()
	psig := PatternSignature(p)
	if SignatureOf(ix).Covers(&psig) {
		return false
	}
	hits, err := ix.SearchHitsCosted(p, ix.TauMin(), nil)
	if err != nil || len(hits) != 0 {
		t.Fatalf("signature rules out %q but Search reports %d hits (err %v)", p, len(hits), err)
	}
	n, err := ix.SearchCountCosted(p, ix.TauMin(), nil)
	if err != nil || n != 0 {
		t.Fatalf("signature rules out %q but Count reports %d (err %v)", p, n, err)
	}
	top, err := ix.SearchTopKCosted(p, 1000, nil)
	if err != nil || len(top) != 0 {
		t.Fatalf("signature rules out %q but TopK reports %d hits (err %v)", p, len(top), err)
	}
	return true
}

// TestPairSignatureSound: whenever a plain index's signature does not
// cover a pattern, the index holds no occurrence of it at τmin — for
// strings with and without correlations, for patterns sampled from the
// string and random strings over the alphabet. A persisted and reloaded
// index carries the identical signature; the other backends keep none.
func TestPairSignatureSound(t *testing.T) {
	rejected, sampled := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := gen.Single(gen.Config{
			N:            20 + rng.Intn(40),
			Theta:        0.2 + 0.3*rng.Float64(),
			Correlations: int(seed % 3),
			Seed:         seed,
		})
		ix, err := Build(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 6; m++ {
			for _, p := range gen.Patterns(s, 3, m, seed*7+int64(m)) {
				sampled++
				if signatureRejectsSound(t, ix, p) {
					rejected++
				}
			}
			for i := 0; i < 6; i++ {
				p := make([]byte, m)
				for k := range p {
					p[k] = gen.ProteinAlphabet[rng.Intn(len(gen.ProteinAlphabet))]
				}
				sampled++
				if signatureRejectsSound(t, ix, p) {
					rejected++
				}
			}
		}

		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadBackend(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if sig := SignatureOf(loaded); sig == nil || *sig != *SignatureOf(ix) {
			t.Fatalf("seed %d: reloaded signature %v, built %v", seed, sig, SignatureOf(ix))
		}
	}
	// The property is vacuous unless the signature rules patterns out.
	if rejected == 0 || rejected == sampled {
		t.Fatalf("signature ruled out %d of %d patterns; want some but not all", rejected, sampled)
	}
	t.Logf("signature ruled out %d of %d patterns", rejected, sampled)

	s := gen.Single(gen.Config{N: 60, Theta: 0.3, Seed: 5})
	for _, kind := range []string{BackendCompressed, BackendApprox} {
		b, err := buildKind(kind, s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if sig := SignatureOf(b); sig != nil {
			t.Errorf("%s backend has a signature; the catalog would skip it", kind)
		}
	}
}

// FuzzPairSignatureSound builds a small uncertain string over ACGT and a
// pattern over ACGTN from the fuzz bytes, and fails if the signature rules
// the pattern out while the plain index reports an occurrence.
//
// Layout: data[0] low 3 bits are the pattern length minus one and bit 3
// adds a correlation between the first two positions; the next bytes are
// the pattern, the rest one byte per string position.
func FuzzPairSignatureSound(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x05, 0x41, 0x12})
	f.Add([]byte{0x0a, 0x02, 0x03, 0x04, 0x30, 0x31, 0x32, 0x33, 0x34, 0x35})
	f.Add([]byte{0x03, 0x04, 0x04, 0x04, 0x04, 0xff, 0x7f, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const alpha = "ACGT"
		m := 1 + int(data[0]&7)
		withCorr := data[0]&8 != 0
		data = data[1:]
		if len(data) <= m || len(data)-m > 64 {
			return
		}
		p := make([]byte, m)
		for i := range p {
			p[i] = "ACGTN"[int(data[i])%5]
		}
		s := &ustring.String{}
		for _, b := range data[m:] {
			k := 1 + int(b%3)
			first := int(b>>2) % len(alpha)
			w := float64(1+b>>4) / 17
			probs := [][]float64{{1}, {w, 1 - w}, {w / 2, w / 2, 1 - w}}[k-1]
			pos := make(ustring.Position, k)
			for i := range pos {
				pos[i] = ustring.Choice{Char: alpha[(first+i)%len(alpha)], Prob: probs[i]}
			}
			s.Pos = append(s.Pos, pos)
		}
		if withCorr && s.Len() >= 2 {
			s.Corr = []ustring.Correlation{{
				At: 0, Char: s.Pos[0][0].Char, DepAt: 1, DepChar: s.Pos[1][0].Char,
				ProbWhenPresent: 0.9, ProbWhenAbsent: 0.2,
			}}
		}
		if s.Validate() != nil {
			return
		}
		ix, err := Build(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		signatureRejectsSound(t, ix, p)
	})
}
