package uncertain_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/uncertain"
)

// TestSharedIndexHammer exercises the documented concurrency guarantee: one
// shared Index queried from many goroutines with a mix of Search,
// SearchHitsCosted, SearchTopKCosted and SearchCountCosted must be race-free
// (run with -race) and agree with the serial baseline throughout.
func TestSharedIndexHammer(t *testing.T) {
	s := uncertain.GenerateString(uncertain.GenConfig{N: 4000, Theta: 0.3, Seed: 101})
	ix, err := uncertain.NewIndex(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pats := [][]byte{}
	for _, m := range []int{2, 3, 5, 9, 14} {
		pats = append(pats, samplePattern(s, m))
	}
	const tau = 0.15

	type baseline struct {
		positions []int
		hits      []uncertain.Hit
		top       []uncertain.Hit
		count     int
	}
	want := make([]baseline, len(pats))
	for i, p := range pats {
		if want[i].positions, err = ix.Search(p, tau); err != nil {
			t.Fatal(err)
		}
		if want[i].hits, err = ix.SearchHitsCosted(p, tau, nil); err != nil {
			t.Fatal(err)
		}
		if want[i].top, err = ix.SearchTopKCosted(p, 4, nil); err != nil {
			t.Fatal(err)
		}
		if want[i].count, err = ix.SearchCountCosted(p, tau, nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				i := (w*3 + round) % len(pats)
				p := pats[i]
				switch round % 4 {
				case 0:
					got, err := ix.Search(p, tau)
					if err != nil || !reflect.DeepEqual(got, want[i].positions) {
						errs <- "Search diverged under concurrency"
						return
					}
				case 1:
					got, err := ix.SearchHitsCosted(p, tau, nil)
					if err != nil || !reflect.DeepEqual(got, want[i].hits) {
						errs <- "SearchHits diverged under concurrency"
						return
					}
				case 2:
					got, err := ix.SearchTopKCosted(p, 4, nil)
					if err != nil || !reflect.DeepEqual(got, want[i].top) {
						errs <- "SearchTopK diverged under concurrency"
						return
					}
				case 3:
					got, err := ix.SearchCountCosted(p, tau, nil)
					if err != nil || got != want[i].count {
						errs <- "SearchCount diverged under concurrency"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// samplePattern draws one length-m pattern from the per-position argmax
// characters around the middle of s, so the workload has real matches.
func samplePattern(s *uncertain.String, m int) []byte {
	start := (s.Len() - m) / 2
	p := make([]byte, m)
	for k := 0; k < m; k++ {
		best := s.Pos[start+k][0]
		for _, c := range s.Pos[start+k] {
			if c.Prob > best.Prob {
				best = c
			}
		}
		p[k] = best.Char
	}
	return p
}
