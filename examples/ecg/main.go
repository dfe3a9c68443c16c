// ECG: searching annotated heartbeat streams — the paper's second motivating
// application (Section 2, "Automatic ECG annotations").
//
// A Holter monitor emits one annotation symbol per heartbeat (N = normal,
// L/R = bundle branch block, A = atrial premature, V = premature
// ventricular contraction). The annotation software is often unsure and
// attaches a probability distribution to ambiguous beats. A clinician looks
// for diagnostic motifs such as "NNAV" — two normal beats, an atrial
// premature beat, then a premature ventricular contraction — above a
// confidence threshold. This example simulates such a stream, indexes it and
// runs the paper's own diagnostic query.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/uncertain"
)

// beatAlphabet are the AAMI-style annotation symbols used by the example.
var beatAlphabet = []byte("NLRAV")

// simulateStream builds an uncertain annotation stream of n beats: mostly
// confident normals with occasional ambiguous beats where the classifier
// hesitates between a normal and an ectopic label.
func simulateStream(n int, seed int64) *uncertain.String {
	rng := rand.New(rand.NewSource(seed))
	s := &uncertain.String{Pos: make([]uncertain.Position, n)}
	for i := range s.Pos {
		switch r := rng.Float64(); {
		case r < 0.70: // confident normal beat
			s.Pos[i] = uncertain.Position{{Char: 'N', Prob: 1}}
		case r < 0.80: // confident ectopic
			c := beatAlphabet[1+rng.Intn(4)]
			s.Pos[i] = uncertain.Position{{Char: c, Prob: 1}}
		default: // ambiguous beat: probability split between two labels
			a := beatAlphabet[rng.Intn(len(beatAlphabet))]
			b := beatAlphabet[rng.Intn(len(beatAlphabet))]
			for b == a {
				b = beatAlphabet[rng.Intn(len(beatAlphabet))]
			}
			p := 0.5 + 0.4*rng.Float64()
			s.Pos[i] = uncertain.Position{
				{Char: a, Prob: p},
				{Char: b, Prob: 1 - p},
			}
		}
	}
	return s
}

func main() {
	stream := simulateStream(20_000, 7)
	fmt.Printf("annotated stream: %d beats\n", stream.Len())

	ix, err := uncertain.NewIndex(stream, 0.1)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's diagnostic pattern plus two more motifs: ventricular
	// couplets (VV) and bigeminy fragments (NVNV).
	queries := []struct {
		pattern string
		meaning string
	}{
		{"NNAV", "two normals, atrial premature, ventricular contraction (paper's example)"},
		{"VV", "ventricular couplet"},
		{"NVNV", "bigeminy fragment"},
	}
	for _, q := range queries {
		fmt.Printf("\npattern %s — %s\n", q.pattern, q.meaning)
		for _, tau := range []float64{0.8, 0.5, 0.2} {
			hits, err := ix.SearchHitsCosted([]byte(q.pattern), tau, nil)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  confidence > %.1f: %4d site(s)", tau, len(hits))
			if len(hits) > 0 {
				fmt.Printf("; strongest at beat %d (p=%.3f)", hits[0].Orig, hits[0].Prob())
			}
			fmt.Println()
		}
	}

	// Lowering τ monotonically grows the answer set — the reason a single
	// index supporting arbitrary τ ≥ τmin matters to an interactive
	// clinician (the paper's headline feature).
	var prev int
	for _, tau := range []float64{0.9, 0.7, 0.5, 0.3, 0.1} {
		hits, err := ix.Search([]byte("NNAV"), tau)
		if err != nil {
			log.Fatal(err)
		}
		if len(hits) < prev {
			log.Fatalf("answer set shrank when lowering tau: %d -> %d", prev, len(hits))
		}
		prev = len(hits)
	}
	fmt.Println("\nverified: answer sets grow monotonically as τ decreases")
}
