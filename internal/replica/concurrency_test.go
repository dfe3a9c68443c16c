package replica_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/ustring"
)

// TestConcurrentReplicationAndQuery hammers a live replication pair under
// the race detector: writers mutate the primary over HTTP, the follower's
// applier replays records and re-bootstraps across primary compactions, the
// follower's own background compactor folds its delta, and reader
// goroutines query the follower's views throughout. Every query must run
// against a self-consistent snapshot — results are checked for internal
// sanity only, since the ground truth moves underneath them.
func TestConcurrentReplicationAndQuery(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2600, Theta: 0.3, Seed: 113})
	if len(docs) < 12 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	pst, ts := newPrimary(t, -1)
	// A small threshold keeps the follower's own compactor busy while the
	// applier publishes views.
	fst := openStore(t, 4)
	fw := startFollower(t, fst, ts.URL)

	for i := 0; i < 4; i++ {
		httpPut(t, ts.URL, "hammer", fmt.Sprintf("h%02d", i), docs[i])
	}
	waitFor(t, "bootstrap", func() bool {
		_, ok := fst.Get("hammer")
		return ok
	})
	pats := gen.CollectionPatterns(docs, 8, 3, 127)

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
				v, ok := fst.Get("hammer")
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
			for i := 0; i < 30; i++ {
				id := fmt.Sprintf("h%02d", (w*30+i)%10)
				if i%5 == 4 {
					// Deleting through the store keeps absent ids a no-op
					// (the HTTP endpoint answers 404 for those).
					if _, err := pst.Delete("hammer", id); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					continue
				}
				httpPut(t, ts.URL, "hammer", id, docs[(w+i)%len(docs)])
				if i%9 == 8 {
					// Primary compactions move the WAL epoch mid-stream, so
					// the applier re-bootstraps while readers keep querying.
					httpCompact(t, ts.URL)
				}
			}
		}(w)
	}
	writers.Wait()
	waitFor(t, "post-hammer catch-up", func() bool {
		pos, err := pst.WALPos("hammer")
		if err != nil {
			return false
		}
		for _, cs := range fw.f.Status() {
			if cs.Collection == "hammer" {
				return cs.Epoch == pos.Epoch && cs.AppliedOffset >= pos.Offset
			}
		}
		return false
	})
	close(stop)
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the hammer run")
	}
	pv, _ := pst.Get("hammer")
	fv, _ := fst.Get("hammer")
	if pv.Docs() != fv.Docs() {
		t.Fatalf("after catch-up: primary %d documents, follower %d", pv.Docs(), fv.Docs())
	}
}

// putStatus writes one document and returns the HTTP status — for workloads
// that must tolerate a mid-flight fencing (409) rather than fail on it.
func putStatus(t *testing.T, base, coll, id string, doc *ustring.String) int {
	t.Helper()
	var body bytes.Buffer
	if err := ustring.Marshal(&body, doc); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/collections/%s/documents/%s", base, coll, id), &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestConcurrentPromotionHammer races a promotion against everything at
// once under the race detector: writers keep mutating the old primary over
// HTTP (tolerating the typed 409 once the fence lands), a compaction racer
// moves the WAL epoch, readers query BOTH stores' views throughout, and the
// follower's tailers are mid-flight when /v1/promote cancels them. After
// the dust settles the promoted node must be a serving primary and the old
// one fenced, with every view still internally sane.
func TestConcurrentPromotionHammer(t *testing.T) {
	docs := gen.Collection(gen.Config{N: 2600, Theta: 0.3, Seed: 131})
	if len(docs) < 12 {
		t.Fatalf("generator returned only %d documents", len(docs))
	}
	pst, ts := newPrimary(t, -1)
	fst := openStore(t, 4)
	fw := startFollower(t, fst, ts.URL)
	rts := httptest.NewServer(server.NewReplica(fw.f, server.Config{}))
	t.Cleanup(rts.Close)

	for i := 0; i < 6; i++ {
		httpPut(t, ts.URL, "hammer", fmt.Sprintf("h%02d", i), docs[i])
	}
	waitFor(t, "bootstrap", func() bool {
		v, ok := fst.Get("hammer")
		return ok && v.Docs() == 6 && fw.f.CaughtUp()
	})
	pats := gen.CollectionPatterns(docs, 8, 3, 127)

	var wg sync.WaitGroup
	var queries atomic.Int64
	stop := make(chan struct{})
	// Readers on both nodes: the promotion must never expose a torn view on
	// either side.
	for g, st := range []*ingest.Store{pst, fst, pst, fst} {
		wg.Add(1)
		go func(g int, st *ingest.Store) {
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
					if hits[j].Doc >= v.Docs() {
						t.Errorf("hit in document %d of a %d-document view", hits[j].Doc, v.Docs())
						return
					}
				}
				queries.Add(1)
			}
		}(g, st)
	}

	// Writers against the OLD primary: every answer must be a clean 200 or,
	// once the promotion's fencing probe lands, the typed 409 — never a
	// torn write or a 500.
	var writers sync.WaitGroup
	var fencedWrites atomic.Int64
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("h%02d", (w*40+i)%12)
				switch status := putStatus(t, ts.URL, "hammer", id, docs[(w+i)%len(docs)]); status {
				case http.StatusOK:
				case http.StatusConflict:
					fencedWrites.Add(1)
				default:
					t.Errorf("old-primary put answered %d", status)
					return
				}
			}
		}(w)
	}
	// A compaction racer keeps the WAL epoch moving while the promotion
	// drains and takes over.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 6; i++ {
			resp, err := http.Post(ts.URL+"/v1/compact", "application/json", nil)
			if err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				t.Errorf("compact answered %d", resp.StatusCode)
				return
			}
		}
	}()

	// Promote mid-hammer, from a goroutine of its own so it races the
	// writers, the compactor and the follower's reconnect loop.
	writers.Add(1)
	go func() {
		defer writers.Done()
		resp, err := http.Post(rts.URL+"/v1/promote", "application/json", nil)
		if err != nil {
			t.Errorf("promote: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("promote answered %d", resp.StatusCode)
		}
	}()

	writers.Wait()
	close(stop)
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the hammer run")
	}
	if !fw.f.Promoted() {
		t.Fatal("follower did not promote")
	}
	// The promoted node serves writes; the old primary is fenced (the
	// promote-time probe always lands here — the old primary stayed up).
	if status := putStatus(t, rts.URL, "hammer", "post-promote", docs[0]); status != http.StatusOK {
		t.Fatalf("write on the promoted node answered %d", status)
	}
	if fenced, _ := pst.Fenced(); !fenced {
		t.Fatal("old primary not fenced after promotion")
	}
	if status := putStatus(t, ts.URL, "hammer", "ghost", docs[0]); status != http.StatusConflict {
		t.Fatalf("fenced primary accepted a write (status %d)", status)
	}
}
