package server

import (
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
)

// panicky is a backend whose costed queries panic, standing in for a
// corrupt index or a bad mapped region.
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

// fixedCollections is a provider over prebuilt collections.
type fixedCollections map[string]*catalog.Collection

func (f fixedCollections) Get(name string) (*catalog.Collection, bool) {
	col, ok := f[name]
	return col, ok
}

func (f fixedCollections) Names() []string { return slices.Sorted(maps.Keys(f)) }

func (f fixedCollections) Stats() []catalog.Info { return nil }

// TestShardPanicIs500: a backend panic inside the fan-out answers that
// request with a 500 naming the panic, and the process keeps serving —
// the next query on a healthy collection gets its normal answer.
func TestShardPanicIs500(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 600, Theta: 0.3, Seed: 223})
	good, err := catalog.New(catalog.Options{TauMin: 0.1, Shards: 2}).Add("good", docs)
	if err != nil {
		t.Fatal(err)
	}
	ixs := good.DocIndexes()
	ixs[0] = panicky{ixs[0]}
	colls := fixedCollections{
		"good": good,
		"bad":  catalog.FromIndexes("bad", 0.1, 0, 2, core.BackendSpec{}, ixs),
	}
	s := newServer(newSource[*catalog.Collection](colls), RoleStatic, nil, Config{})
	p := pattern(t, docs, 2)
	for _, path := range []string{"/v1/query", "/v1/count"} {
		var body errorResponse
		get(t, s, path+"?collection=bad&tau=0.15&p="+url.QueryEscape(p), http.StatusInternalServerError, &body)
		if !strings.Contains(body.Error, "panic: corrupt index") {
			t.Fatalf("%s: 500 body lacks the panic: %q", path, body.Error)
		}
	}
	var body errorResponse
	get(t, s, "/v1/topk?collection=bad&k=3&p="+url.QueryEscape(p), http.StatusInternalServerError, &body)

	want, err := good.SearchObs(nil, nil, []byte(p), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	var resp QueryResponse
	get(t, s, "/v1/query?collection=good&tau=0.15&p="+url.QueryEscape(p), http.StatusOK, &resp)
	if resp.Count != len(want) || len(want) == 0 {
		t.Fatalf("healthy collection after the panics: count %d, want %d (> 0)", resp.Count, len(want))
	}
}
