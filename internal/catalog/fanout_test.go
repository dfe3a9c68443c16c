package catalog

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// panicky is a backend whose costed queries — the ones the fan-out calls —
// panic, standing in for a corrupt index or a bad mapped region.
type panicky struct{ core.Backend }

func (panicky) SearchHitsCosted([]byte, float64, *core.QueryStats) ([]core.Hit, error) {
	panic("corrupt index")
}

func (panicky) SearchTopKCosted([]byte, int, *core.QueryStats) ([]core.Hit, error) {
	panic("corrupt index")
}

func (panicky) SearchCountCosted([]byte, float64, *core.QueryStats) (int, error) {
	panic("corrupt index")
}

// TestShardPanicBecomesError: a panic inside one shard's backend call fails
// that query with an error naming the panic and carrying its stack, instead
// of killing the process; the other shards and later queries are unharmed.
func TestShardPanicBecomesError(t *testing.T) {
	docs := testDocs(t, 600, 211)
	healthy, err := New(Options{TauMin: 0.1, Shards: 2}).Add("healthy", docs)
	if err != nil {
		t.Fatal(err)
	}
	ixs := healthy.DocIndexes()
	ixs[1] = panicky{ixs[1]}
	col := FromIndexes("bad", 0.1, 0, 2, core.BackendSpec{}, ixs)

	p := []byte("AL")
	queries := map[string]func(c *obs.Cost) error{
		"search": func(c *obs.Cost) error { _, err := col.SearchObs(nil, c, p, 0.15); return err },
		"count":  func(c *obs.Cost) error { _, err := col.CountObs(nil, c, p, 0.15); return err },
		"topk":   func(c *obs.Cost) error { _, err := col.TopKObs(nil, c, p, 3); return err },
	}
	for name, q := range queries {
		for _, c := range []*obs.Cost{nil, {}} {
			err := q(c)
			if err == nil {
				t.Fatalf("%s (cost %v): no error from a panicking shard", name, c != nil)
			}
			msg := err.Error()
			if !strings.Contains(msg, "panic: corrupt index") || !strings.Contains(msg, "panicky.") {
				t.Fatalf("%s: error lacks the panic value or stack: %s", name, msg)
			}
		}
	}
	if _, err := healthy.SearchObs(nil, nil, p, 0.15); err != nil {
		t.Fatalf("healthy collection after the panics: %v", err)
	}
}
