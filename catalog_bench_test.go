// Serving-path benchmarks for the sharded catalog: fan-out cost across
// shard counts × pattern lengths, plus the global top-k merge and the count
// path. Future PRs track these series in BENCH_*.json to watch serving
// throughput as the catalog grows.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/ustring"
)

// catalogBenchState is built once and reused across all serving benchmarks:
// one document set, one catalog per shard count, and per-length pattern
// pools.
type catalogBenchState struct {
	docs  []*ustring.String
	colls map[int]*catalog.Collection // shard count → collection
	pats  map[int][][]byte            // pattern length → patterns
}

var (
	catalogBenchOnce sync.Once
	catalogBench     catalogBenchState
)

func catalogBenchSetup(b *testing.B) *catalogBenchState {
	b.Helper()
	catalogBenchOnce.Do(func() {
		st := &catalogBench
		st.docs = gen.Collection(gen.Config{N: 60_000, Theta: 0.3, Seed: 9})
		st.colls = make(map[int]*catalog.Collection)
		for _, shards := range []int{1, 2, 4, 8} {
			c := catalog.New(catalog.Options{TauMin: 0.1, Shards: shards})
			col, err := c.Add("bench", st.docs)
			if err != nil {
				panic(err)
			}
			st.colls[shards] = col
		}
		st.pats = make(map[int][][]byte)
		for _, m := range []int{4, 8, 16} {
			st.pats[m] = gen.CollectionPatterns(st.docs, 64, m, 15)
		}
	})
	return &catalogBench
}

// BenchmarkCatalogSearch measures threshold-search fan-out across shard
// count × pattern length.
func BenchmarkCatalogSearch(b *testing.B) {
	st := catalogBenchSetup(b)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, m := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("shards=%d/m=%d", shards, m), func(b *testing.B) {
				col := st.colls[shards]
				pats := st.pats[m]
				hits := 0
				for i := 0; i < b.N; i++ {
					res, err := col.SearchObs(nil, nil, pats[i%len(pats)], 0.15)
					if err != nil {
						b.Fatal(err)
					}
					hits += len(res)
				}
				b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
			})
		}
	}
}

// BenchmarkCatalogTopK measures the global top-k heap merge across shard
// counts at a fixed pattern length.
func BenchmarkCatalogTopK(b *testing.B) {
	st := catalogBenchSetup(b)
	for _, shards := range []int{1, 4} {
		for _, k := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("shards=%d/k=%d", shards, k), func(b *testing.B) {
				col := st.colls[shards]
				pats := st.pats[4]
				for i := 0; i < b.N; i++ {
					if _, err := col.TopKObs(nil, nil, pats[i%len(pats)], k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCatalogCount measures the count path (no hit materialisation)
// across shard counts.
func BenchmarkCatalogCount(b *testing.B) {
	st := catalogBenchSetup(b)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			col := st.colls[shards]
			pats := st.pats[8]
			for i := 0; i < b.N; i++ {
				if _, err := col.CountObs(nil, nil, pats[i%len(pats)], 0.15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
