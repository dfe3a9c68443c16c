// Quickstart: build an index over a small uncertain string and run threshold
// queries — the library's two-minute tour.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/uncertain"
)

func main() {
	// An uncertain string in the text encoding: one position per line,
	// each position a set of character:probability choices summing to 1.
	// This is the paper's Figure 3 string (a protein alignment around
	// At4g15440 from OrthologID).
	input := `P:1
S:0.7 F:0.3
F:1
P:1
Q:0.5 T:0.5
P:1
A:0.4 F:0.4 P:0.2
I:0.3 L:0.3 T:0.3 F:0.1
A:1
S:0.5 T:0.5
A:1
`
	s, err := uncertain.Parse(strings.NewReader(input))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d uncertain positions\n", s.Len())

	// Build once for a minimum threshold; query for any tau >= 0.1.
	ix, err := uncertain.NewIndex(s, 0.1)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Section 2 sample query: where does "AT" occur with
	// probability > 0.4? (Position 7 matches with 0.12, position 9 with
	// 0.5 — only the latter qualifies; the paper uses 1-based positions,
	// the library 0-based.)
	for _, tau := range []float64{0.4, 0.1} {
		hits, err := ix.SearchHitsCosted([]byte("AT"), tau, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nAT with probability > %.2f:\n", tau)
		for _, h := range hits {
			fmt.Printf("  position %d  (probability %.3f)\n", h.Orig, h.Prob())
		}
	}

	// Probabilities multiply along the pattern: "SFPQ" at position 1 has
	// 0.7·1·1·0.5 = 0.35 (Section 3.2).
	hits, err := ix.SearchHitsCosted([]byte("SFPQ"), 0.3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSFPQ with probability > 0.30:")
	for _, h := range hits {
		fmt.Printf("  position %d  (probability %.3f)\n", h.Orig, h.Prob())
	}
}
