// SNP: threshold motif search in a DNA sequence with IUPAC ambiguity codes —
// the paper's NC-IUB motivation (Section 2) made concrete.
//
// Reference genomes and consensus sequences encode uncertain bases with
// IUPAC codes: R means "A or G", N means "any base", and so on. Reading such
// a sequence as a character-level uncertain string lets a biologist ask for
// motif hits above a confidence threshold instead of either ignoring
// ambiguous bases or exploding every combination.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/uncertain"
)

// makeConsensus synthesises a DNA consensus sequence with sprinkled IUPAC
// ambiguity codes, embedding a few copies of a motif with ambiguous
// positions inside.
func makeConsensus(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	bases := "ACGT"
	codes := "RYSWKMN"
	var b strings.Builder
	for b.Len() < n {
		// Occasionally embed the TATA-box-like motif with one ambiguous
		// position: "TATAWAWR" (W = A/T, R = A/G — the canonical consensus).
		if rng.Float64() < 0.002 && n-b.Len() > 8 {
			b.WriteString("TATAWAWR")
			continue
		}
		if rng.Float64() < 0.03 {
			b.WriteByte(codes[rng.Intn(len(codes))])
		} else {
			b.WriteByte(bases[rng.Intn(len(bases))])
		}
	}
	return b.String()
}

func main() {
	consensus := makeConsensus(100_000, 21)
	seq, err := uncertain.FromIUPAC(consensus)
	if err != nil {
		log.Fatal(err)
	}
	ambiguous := 0
	for _, pos := range seq.Pos {
		if len(pos) > 1 {
			ambiguous++
		}
	}
	fmt.Printf("consensus: %d bases, %d ambiguous (%.1f%%)\n",
		seq.Len(), ambiguous, 100*float64(ambiguous)/float64(seq.Len()))

	// τmin = 0.05 keeps windows with a couple of ambiguous bases queryable;
	// lower thresholds admit exponentially more ambiguous combinations into
	// the Lemma 2 transformation (the (1/τmin)² factor) for little
	// biological signal.
	ix, err := uncertain.NewIndex(seq, 0.05)
	if err != nil {
		log.Fatal(err)
	}

	// The TATA-box core: at an embedded "TATAWAWR" site, TATAAA matches
	// the first six positions with probability 1·1·1·1·(1/2)·1 = 0.5.
	motif := []byte("TATAAA")
	for _, tau := range []float64{0.45, 0.2, 0.05} {
		n, err := ix.SearchCountCosted(motif, tau, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("TATAAA with confidence > %.2f: %d site(s)\n", tau, n)
	}

	// Top-k retrieval: the strongest candidate sites regardless of
	// threshold — what a ranked genome-browser track wants.
	top, err := ix.SearchTopKCosted(motif, 5, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrongest TATAAA candidate sites:")
	for _, h := range top {
		window := consensus[h.Orig : int(h.Orig)+6]
		fmt.Printf("  position %6d  p=%.3f  consensus context %q\n",
			h.Orig, h.Prob(), window)
	}

	// Ambiguity-aware counting: at τ = 0.05 a probe crossing one R/Y/W base
	// still counts (probability 1/2), while stretches of N bases (1/4 per
	// position) fall out after two — the threshold is doing the filtering a
	// combinatorial expansion of the IUPAC codes would need post-processing
	// for.
	weak, err := ix.SearchCountCosted([]byte("ACGT"), 0.05, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nACGT above 0.05 (ambiguity-crossing matches included): %d sites\n", weak)
}
