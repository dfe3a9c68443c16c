package catalog

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSignatureSkipsUnmatchablePattern: a pattern whose character pairs
// occur in no document is answered from the pair signatures alone — no
// suffix-array probe, no candidate — and the cost still shows one
// signature read per document. Malformed queries on the same collection
// keep the backends' sentinel errors even though every document would be
// skipped.
func TestSignatureSkipsUnmatchablePattern(t *testing.T) {
	docs := testDocs(t, 1500, 53)
	col := testCatalog(t, docs, 3)
	// J, O, U and X are outside the generator's alphabet.
	p := []byte("XJOUXO")
	psig := core.PatternSignature(p)
	for i, ix := range col.DocIndexes() {
		if sig := core.SignatureOf(ix); sig == nil || sig.Covers(&psig) {
			t.Fatalf("doc %d: signature %v does not rule out %q; pick another pattern", i, sig, p)
		}
	}

	queries := map[string]func(c *obs.Cost) (int, error){
		"search": func(c *obs.Cost) (int, error) { h, err := col.SearchObs(nil, c, p, 0.1); return len(h), err },
		"count":  func(c *obs.Cost) (int, error) { return col.CountObs(nil, c, p, 0.1) },
		"topk":   func(c *obs.Cost) (int, error) { h, err := col.TopKObs(nil, c, p, 10); return len(h), err },
	}
	for name, q := range queries {
		var c obs.Cost
		n, err := q(&c)
		if err != nil || n != 0 {
			t.Fatalf("%s: %d results, err %v; want 0, nil", name, n, err)
		}
		snap := c.Snapshot()
		if snap.SuffixSteps != 0 || snap.Candidates != 0 {
			t.Errorf("%s: %d suffix steps, %d candidates; want 0 (every document skipped)",
				name, snap.SuffixSteps, snap.Candidates)
		}
		if want := int64(len(docs) * core.SignatureBytes); snap.IndexBytes != want {
			t.Errorf("%s: index bytes %d, want %d (one signature read per document)", name, snap.IndexBytes, want)
		}
	}

	bad := []struct {
		name string
		p    []byte
		tau  float64
		want error
	}{
		{"empty pattern", nil, 0.2, core.ErrEmptyPattern},
		{"0x00 byte", []byte("XJ\x00OU"), 0.2, core.ErrBadPattern},
		{"tau below tau_min", p, 0.05, core.ErrTauBelowTauMin},
		{"tau above 1", p, 1.5, core.ErrTauOutOfRange},
	}
	for _, b := range bad {
		if _, err := col.SearchObs(nil, nil, b.p, b.tau); !errors.Is(err, b.want) {
			t.Errorf("Search(%s) err = %v, want %v", b.name, err, b.want)
		}
		if _, err := col.CountObs(nil, nil, b.p, b.tau); !errors.Is(err, b.want) {
			t.Errorf("Count(%s) err = %v, want %v", b.name, err, b.want)
		}
	}
	// Top-k has no threshold: only the pattern itself is validated.
	for _, b := range bad[:2] {
		if _, err := col.TopKObs(nil, nil, b.p, 5); !errors.Is(err, b.want) {
			t.Errorf("TopK(%s) err = %v, want %v", b.name, err, b.want)
		}
	}
}

var mergeSink []DocHit

// TestMergeTopKAllocBoundedByCandidates: the top-k heap is sized by the
// candidates the shards returned, not by k, so a large k on a sparse result
// allocates little.
func TestMergeTopKAllocBoundedByCandidates(t *testing.T) {
	lists := [][]DocHit{
		{{Doc: 0, Pos: 4, Prob: 0.5}},
		{{Doc: 1, Pos: 2, Prob: 0.7}},
		{{Doc: 2, Pos: 0, Prob: 0.3}},
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		mergeSink = mergeTopK(nil, 10000, lists...)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4096 {
		t.Errorf("mergeTopK(k=10000, 3 hits) allocates %d B per call, want < 4096", per)
	}
	want := []DocHit{lists[1][0], lists[0][0], lists[2][0]}
	for i := range want {
		if mergeSink[i] != want[i] {
			t.Fatalf("mergeTopK = %v, want %v", mergeSink, want)
		}
	}
}
