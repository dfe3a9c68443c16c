package catalog

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestConcurrentCatalogQueries hammers one shared collection with mixed
// Search/TopK/Count traffic from many goroutines while collections are
// concurrently added to the catalog. Run with -race; every result must match
// the serial baseline.
func TestConcurrentCatalogQueries(t *testing.T) {
	docs := testDocs(t, 2000, 61)
	c := New(Options{TauMin: 0.1, Shards: 4})
	col, err := c.Add("hammer", docs)
	if err != nil {
		t.Fatal(err)
	}
	pats := gen.CollectionPatterns(docs, 16, 4, 67)

	type baseline struct {
		hits  []DocHit
		top   []DocHit
		count int
	}
	want := make([]baseline, len(pats))
	for i, p := range pats {
		if want[i].hits, err = col.SearchObs(nil, nil, p, 0.15); err != nil {
			t.Fatal(err)
		}
		if want[i].top, err = col.TopKObs(nil, nil, p, 3); err != nil {
			t.Fatal(err)
		}
		if want[i].count, err = col.CountObs(nil, nil, p, 0.15); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 15; round++ {
				i := (w*5 + round) % len(pats)
				p := pats[i]
				switch round % 3 {
				case 0:
					got, err := col.SearchObs(nil, nil, p, 0.15)
					if err != nil || !reflect.DeepEqual(got, want[i].hits) {
						errs <- "Search mismatch"
						return
					}
				case 1:
					got, err := col.TopKObs(nil, nil, p, 3)
					if err != nil || !reflect.DeepEqual(got, want[i].top) {
						errs <- "TopK mismatch"
						return
					}
				default:
					got, err := col.CountObs(nil, nil, p, 0.15)
					if err != nil || got != want[i].count {
						errs <- "Count mismatch"
						return
					}
				}
			}
		}(w)
	}
	// Concurrent catalog mutation: lookups and additions must not race with
	// the query traffic above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := c.Add("side", docs[:1]); err != nil {
				errs <- "Add failed"
				return
			}
			if _, ok := c.Get("hammer"); !ok {
				errs <- "Get lost the collection"
				return
			}
			c.Names()
			c.Stats()
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
