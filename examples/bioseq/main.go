// Bioseq: motif searching in uncertain biological sequences — the paper's
// first motivating application (Section 2, "Biological sequence data").
//
// Shotgun sequencing reads carry per-base quality scores; SNP panels give
// per-position allele frequencies. Both are character-level uncertain
// strings. This example synthesises a protein sequence with realistic
// uncertainty (the paper's Section 8.1 statistics), indexes it once, and
// scans a panel of motifs at several confidence thresholds — comparing the
// index against the online matcher to show why the index matters for
// repeated queries.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/uncertain"
)

func main() {
	// A 50K-position uncertain protein sequence, 30% uncertain positions,
	// ~5 candidate residues each — the paper's evaluation distribution.
	seq := uncertain.GenerateString(uncertain.GenConfig{
		N: 50_000, Theta: 0.3, Seed: 42,
	})
	fmt.Printf("sequence: %d positions over the 22-letter protein alphabet\n", seq.Len())

	start := time.Now()
	ix, err := uncertain.NewIndex(seq, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %v (%.1fx transformed expansion)\n\n",
		time.Since(start).Round(time.Millisecond), ix.Transformed().ExpansionFactor())

	// A motif panel: short conserved patterns a biologist might scan for.
	motifs := []string{"KLVF", "GGVV", "DAEFR", "HDSG", "AIIGLM"}

	for _, motif := range motifs {
		for _, tau := range []float64{0.5, 0.2} {
			hits, err := ix.SearchHitsCosted([]byte(motif), tau, nil)
			if err != nil {
				log.Fatal(err)
			}
			if len(hits) == 0 {
				continue
			}
			best := hits[0] // hits arrive in decreasing probability order
			fmt.Printf("motif %-7s τ=%.1f: %3d site(s); best at %6d with p=%.3f\n",
				motif, tau, len(hits), best.Orig, best.Prob())
		}
	}

	// Repeated-query economics: the index answers from its RMQ structures;
	// the online matcher re-scans the sequence every time.
	pat := []byte("KLVF")
	const rounds = 200
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := ix.Search(pat, 0.2); err != nil {
			log.Fatal(err)
		}
	}
	indexed := time.Since(start)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		uncertain.SearchOnline(seq, pat, 0.2)
	}
	online := time.Since(start)
	fmt.Printf("\n%d repeated queries: indexed %v, online %v (%.0fx speedup)\n",
		rounds, indexed.Round(time.Microsecond), online.Round(time.Microsecond),
		float64(online)/float64(indexed))
}
