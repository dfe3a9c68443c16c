// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//   - recursive-RMQ extraction vs the Section 4.1 full-range scan, across
//     thresholds (the selectivity regime where the RMQ structures pay off);
//   - the long-pattern blocking scheme vs the plain scan fallback;
//   - the Lemma 2 transformation cost across τmin (the (1/τmin)² expansion);
//   - the online DP matcher as the no-index floor.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/stree"
	"repro/internal/suffix"
	"repro/internal/ustring"
)

func ablationData(b *testing.B) (*ustring.String, [][]byte) {
	b.Helper()
	s := gen.Single(gen.Config{N: 50_000, Theta: 0.3, Seed: 3})
	pats := gen.Patterns(s, 64, 4, 5) // short, low-selectivity patterns
	return s, pats
}

// BenchmarkAblationRMQvsScan compares the efficient index and the simple
// index at decreasing τ: as the suffix ranges stay fixed but outputs grow,
// the scan pays for the whole range while the RMQ extraction pays per
// output.
func BenchmarkAblationRMQvsScan(b *testing.B) {
	s, pats := ablationData(b)
	efficient, err := core.Build(s, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	simple, err := baseline.BuildSimple(s, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []float64{0.5, 0.2, 0.05} {
		b.Run(fmt.Sprintf("rmq/tau=%.2f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := efficient.Search(pats[i%len(pats)], tau); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/tau=%.2f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simple.Search(pats[i%len(pats)], tau)
			}
		})
	}
}

// BenchmarkAblationLongBlocking compares the blocking scheme against the
// forced scan fallback for patterns beyond log N.
func BenchmarkAblationLongBlocking(b *testing.B) {
	s := gen.Single(gen.Config{N: 50_000, Theta: 0.3, Seed: 3})
	long := gen.Patterns(s, 64, 24, 7)
	blocked, err := core.Build(s, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	// LongCap below the pattern length forces the scan path.
	scanOnly, err := core.Build(s, 0.1, core.WithLongCap(17))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blocking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blocked.Search(long[i%len(long)], 0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scanOnly.Search(long[i%len(long)], 0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTransform measures the Lemma 2 transformation cost across
// τmin — the practical face of the (1/τmin)² bound.
func BenchmarkAblationTransform(b *testing.B) {
	s := gen.Single(gen.Config{N: 20_000, Theta: 0.3, Seed: 3})
	for _, tm := range []float64{0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("taumin=%.2f", tm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(s, tm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFMvsSA compares suffix-range retrieval on the transformed
// text via the FM-index (the paper's §8.7 compressed suffix array) against
// the plain suffix-array binary search, alongside their space (reported as
// custom metrics in bytes).
func BenchmarkAblationFMvsSA(b *testing.B) {
	s := gen.Single(gen.Config{N: 50_000, Theta: 0.3, Seed: 3})
	tr, err := factor.Transform(s, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	fmix, err := fm.New(tr.T, fm.DefaultSampleRate)
	if err != nil {
		b.Fatal(err)
	}
	tx := suffix.New(tr.T)
	pats := gen.Patterns(s, 64, 6, 5)
	b.Run("fm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fmix.Range(pats[i%len(pats)])
		}
		b.ReportMetric(float64(fmix.Bytes()), "index-bytes")
	})
	b.Run("sa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx.Range(pats[i%len(pats)])
		}
		b.ReportMetric(float64(tx.Bytes()), "index-bytes")
	})
}

// BenchmarkAblationDescendVsBinSearch compares the two suffix-range
// retrieval strategies on the plain structures: suffix tree top-down descent
// (O(m + path·log σ)) vs suffix-array binary search (O(m log N)).
func BenchmarkAblationDescendVsBinSearch(b *testing.B) {
	s := gen.Single(gen.Config{N: 50_000, Theta: 0.3, Seed: 3})
	tr, err := factor.Transform(s, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	tx := suffix.New(tr.T)
	st := stree.Build(tx).WithChildren()
	pats := gen.Patterns(s, 64, 6, 5)
	b.Run("descend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.Find(pats[i%len(pats)])
		}
	})
	b.Run("binsearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx.Range(pats[i%len(pats)])
		}
	})
}

// BenchmarkAblationPropertyVsEfficient compares the fixed-τ property index
// (no probability validation, frozen threshold) against the arbitrary-τ
// efficient index at the same threshold.
func BenchmarkAblationPropertyVsEfficient(b *testing.B) {
	s, pats := ablationData(b)
	prop, err := baseline.BuildProperty(s, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	eff, err := core.Build(s, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("property-fixed-tau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prop.Search(pats[i%len(pats)])
		}
	})
	b.Run("efficient-any-tau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eff.Search(pats[i%len(pats)], 0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOnlineFloor is the index-free DP matcher: the time every
// indexed query avoids.
func BenchmarkAblationOnlineFloor(b *testing.B) {
	s, pats := ablationData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.MatchDP(s, pats[i%len(pats)], 0.2)
	}
}

// BenchmarkAblationTopK exercises the best-first extension against a full
// threshold query plus sort.
func BenchmarkAblationTopK(b *testing.B) {
	s, pats := ablationData(b)
	ix, err := core.Build(s, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("topk10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.SearchTopKCosted(pats[i%len(pats)], 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.SearchHitsCosted(pats[i%len(pats)], 0.05, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
