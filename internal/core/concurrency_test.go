package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestParallelBuildIsDeterministic: the concurrent level construction must
// produce exactly the same index as any other run.
func TestParallelBuildIsDeterministic(t *testing.T) {
	s := gen.Single(gen.Config{N: 3000, Theta: 0.4, Seed: 401})
	a, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 3, 6, 12, 20} {
		for _, p := range gen.Patterns(s, 10, m, 409) {
			ha, err := a.SearchHitsCosted(p, 0.12, nil)
			if err != nil {
				t.Fatal(err)
			}
			hb, err := b.SearchHitsCosted(p, 0.12, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ha, hb) {
				t.Fatalf("two builds disagree on %q", p)
			}
		}
	}
}

// TestConcurrentQueries: the index is immutable after Build, so arbitrary
// concurrent readers must be safe (run with -race) and agree with a serial
// baseline.
func TestConcurrentQueries(t *testing.T) {
	s := gen.Single(gen.Config{N: 5000, Theta: 0.3, Seed: 419})
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pats := gen.Patterns(s, 32, 5, 421)
	want := make([][]int, len(pats))
	for i, p := range pats {
		want[i], err = ix.Search(p, 0.15)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (w*7 + round) % len(pats)
				got, err := ix.Search(pats[i], 0.15)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want[i]) {
					errs <- errMismatch
					return
				}
				for k := range got {
					if got[k] != want[i][k] {
						errs <- errMismatch
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query result mismatch" }
