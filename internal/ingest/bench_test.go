package ingest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/ustring"
)

// benchStore opens a store over b.TempDir seeded with nothing; sync
// behaviour and compaction threshold vary per benchmark.
func benchStore(b *testing.B, noSync bool, threshold int) *Store {
	b.Helper()
	st, err := Open(nil, Options{
		Dir:              b.TempDir(),
		Catalog:          catalog.Options{TauMin: 0.1, Shards: 4},
		CompactThreshold: threshold,
		NoSync:           noSync,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

func benchDocs(b *testing.B, n int) []*ustring.String {
	b.Helper()
	docs := gen.Collection(gen.Config{N: n, Theta: 0.3, Seed: 3})
	if len(docs) == 0 {
		b.Fatal("no documents generated")
	}
	return docs
}

// BenchmarkIngestPut measures raw Put throughput (docs/sec) with and
// without per-append fsync; ns/op is the acknowledged-write latency.
func BenchmarkIngestPut(b *testing.B) {
	docs := benchDocs(b, 20_000)
	for _, mode := range []struct {
		name   string
		noSync bool
	}{{"fsync", false}, {"nosync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			st := benchStore(b, mode.noSync, -1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("d%08d", i%4096)
				if _, err := st.Put("bench", id, docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// BenchmarkIngestPutUnderQueryLoad is the serving-path ingestion benchmark:
// documents/sec written while concurrent readers keep querying the same
// collection. Reported alongside docs/s is the number of queries the
// readers completed per written document.
func BenchmarkIngestPutUnderQueryLoad(b *testing.B) {
	docs := benchDocs(b, 20_000)
	st := benchStore(b, true, 256)
	// Seed enough documents that queries do real fan-out work.
	for i := 0; i < 64; i++ {
		if _, err := st.Put("bench", fmt.Sprintf("seed%04d", i), docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
	pats := gen.CollectionPatterns(docs, 32, 4, 5)

	stop := make(chan struct{})
	var queries atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, ok := st.Get("bench")
				if !ok {
					return
				}
				if _, err := v.SearchObs(nil, nil, pats[(g+i)%len(pats)], 0.15); err != nil {
					b.Error(err)
					return
				}
				queries.Add(1)
			}
		}(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("d%08d", i%4096)
		if _, err := st.Put("bench", id, docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
		// Give the readers a scheduling point per write: on GOMAXPROCS=1 the
		// put loop would otherwise monopolise the only P and the "load"
		// would be nominal.
		runtime.Gosched()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	b.ReportMetric(float64(queries.Load())/float64(b.N), "queries/doc")
}

// BenchmarkIngestCompact measures folding a delta of the given size into a
// base of the same document count. Iterations replace the same id range, so
// the collection size — and with it the checkpoint cost, the dominant term
// — stays constant across iterations.
func BenchmarkIngestCompact(b *testing.B) {
	docs := benchDocs(b, 20_000)
	for _, delta := range []int{16, 64} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			st := benchStore(b, true, -1)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for d := 0; d < delta; d++ {
					if _, err := st.Put("bench", fmt.Sprintf("c%04d", d), docs[(i+d)%len(docs)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if did, err := st.Compact("bench"); err != nil || !did {
					b.Fatalf("compact: did=%v err=%v", did, err)
				}
			}
		})
	}
}
