package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

// TestConcurrentMutationAndQuery hammers one collection with concurrent
// readers, writers and explicit compactions under the race detector. Every
// query must run against a self-consistent snapshot: its results are only
// checked for internal sanity (ordering, no error), since the ground truth
// moves underneath it.
func TestConcurrentMutationAndQuery(t *testing.T) {
	docs := testDocs(t, 2600, 37)
	st, err := Open(nil, testOptions(t, t.TempDir(), 5))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		if _, err := st.Put("hammer", fmt.Sprintf("h%02d", i), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	pats := gen.CollectionPatterns(docs, 8, 3, 41)

	var wg sync.WaitGroup
	var queries atomic.Int64
	stop := make(chan struct{})
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
				v, ok := st.Get("hammer")
				if !ok {
					t.Error("collection vanished mid-run")
					return
				}
				p := pats[(g+i)%len(pats)]
				hits, err := v.SearchObs(nil, nil, p, 0.12)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for j := 1; j < len(hits); j++ {
					a, b := hits[j-1], hits[j]
					if a.Doc > b.Doc || (a.Doc == b.Doc && a.Pos >= b.Pos) {
						t.Errorf("unordered hits %v then %v", a, b)
						return
					}
					if b.Doc >= v.Docs() {
						t.Errorf("hit in document %d of a %d-document view", b.Doc, v.Docs())
						return
					}
				}
				if _, err := v.TopKObs(nil, nil, p, 3); err != nil {
					t.Errorf("topk: %v", err)
					return
				}
				queries.Add(1)
			}
		}(g)
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("h%02d", (w*40+i)%12)
				if i%5 == 4 {
					if _, err := st.Delete("hammer", id); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					continue
				}
				if _, err := st.Put("hammer", id, docs[(w+i)%len(docs)]); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%13 == 12 {
					if _, err := st.Compact("hammer"); err != nil {
						t.Errorf("compact: %v", err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the hammer run")
	}
}
