package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

// maxTraced bounds the operations the traced pass replays; it also stops
// after tracedTime.
const maxTraced = 2000

// tracedTime bounds the traced pass to half the run's measuring time, at
// most 5 s.
func (r *runner) tracedTime() time.Duration { return min(r.dur/2, 5*time.Second) }

// traceStride picks the traced sample from the untraced stream: every
// traceStride-th query of the pool, in stream order.
const traceStride = 7

// span is one timed interval of the traced pass. Spans of one replayed
// operation share Req, which is also the X-Request-Id the server sees.
type span struct {
	Req    string `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced pass's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(req string, parent int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{req, id, parent, name, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
	return id
}

// addStages records the program's own stages (from an obs.Trace or a
// Server-Timing header) as children of parent. The program reports
// durations only, so stages are laid out back to back from the parent's
// start; backend_search, summed over shards, nests under fanout.
func (l *spanLog) addStages(req string, parent int, start time.Time, stages []obs.Stage) {
	at := start
	fanout, fanoutStart := 0, start
	for _, st := range stages {
		d := time.Duration(st.DurationUs * 1e3)
		if st.Name == "backend_search" && fanout != 0 {
			l.add(req, fanout, st.Name, fanoutStart, fanoutStart.Add(d))
			continue
		}
		id := l.add(req, parent, st.Name, at, at.Add(d))
		if st.Name == "fanout" {
			fanout, fanoutStart = id, at
		}
		at = at.Add(d)
	}
}

// rung is one call into one layer's public entry point.
type rung struct {
	name       string
	start, end time.Time
	allocs     uint64 // heap objects allocated during the call
	bytes      uint64 // heap bytes allocated during the call
	n          int    // hits, or the count
	cached     bool   // served from the result cache
	respBytes  int
	stages     []obs.Stage
}

func (g rung) us() float64 { return float64(g.end.Sub(g.start).Nanoseconds()) / 1e3 }

// timed runs fn as one rung. runtime.ReadMemStats flushes the allocator's
// per-P caches, so the allocation counts are exact; the clock runs inside
// the two reads.
func timed(name string, fn func(g *rung) error) (rung, error) {
	g := rung{name: name}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g.start = time.Now()
	err := fn(&g)
	g.end = time.Now()
	runtime.ReadMemStats(&m1)
	g.allocs = m1.Mallocs - m0.Mallocs
	g.bytes = m1.TotalAlloc - m0.TotalAlloc
	return g, err
}

// parseServerTiming reads the stages of a Server-Timing header
// ("name;dur=ms, …").
func parseServerTiming(h string) []obs.Stage {
	var out []obs.Stage
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		out = append(out, obs.Stage{Name: name, DurationUs: ms * 1e3})
	}
	return out
}

// fromBody fills a rung's result fields from a query response body.
func (g *rung) fromBody(body []byte) error {
	a, err := decodeAnswer(body)
	if err != nil {
		return err
	}
	g.n, g.cached, g.respBytes = a.Count, a.Cached, len(body)
	return nil
}

// layerSamples collects the traced pass's per-layer observations.
type layerSamples struct {
	coreUs, coreCalls, coreCands, coreSteps, coreAllocs []float64
	coreHits, coreDocsWithHits                          float64
	catUs, catFanout, catBusy, catMerge, catAllocs      []float64
	viewUs, putUs                                       []float64
	srvUs, srvSelf, srvAllocs, srvBytes, srvResp        []float64
	cliUs, cliSelf                                      []float64
}

func stageUs(stages []obs.Stage, name string) (float64, bool) {
	for _, st := range stages {
		if st.Name == name {
			return st.DurationUs, true
		}
	}
	return 0, false
}

// tracer replays operations down the ladder.
type tracer struct {
	r     *runner
	log   spanLog
	s     layerSamples
	col   *catalog.Collection // core and catalog rungs
	store *ingest.Store       // ingest rung and writes (ingest-churn only)
	reg   *obs.Registry       // store's metrics registry
	srvB  *server.Server      // ServeHTTP rung: its own result cache
	epC   *endpoint           // loopback rung: its own server and cache
	cl    *client
}

func (t *tracer) close() {
	if t.epC != nil {
		t.epC.close()
	}
	t.cl.close()
}

// serve is the server rung: Server.ServeHTTP into an in-memory recorder.
func (t *tracer) serve(req, path string) (rung, error) {
	return timed("server", func(g *rung) error {
		hr := httptest.NewRequest(http.MethodGet, path, nil)
		hr.Header.Set(server.DebugObsHeader, "1")
		hr.Header.Set(server.RequestIDHeader, req)
		rec := httptest.NewRecorder()
		t.srvB.ServeHTTP(rec, hr)
		g.stages = parseServerTiming(rec.Header().Get("Server-Timing"))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ServeHTTP %s: status %d", path, rec.Code)
		}
		return g.fromBody(rec.Body.Bytes())
	})
}

// loopback is the client rung, sent with X-Debug-Obs so the server's
// stages come back as Server-Timing. It also returns the response body.
func (t *tracer) loopback(req, path string) (rung, []byte, error) {
	var raw []byte
	g, err := timed("client", func(g *rung) error {
		resp, err := t.cl.get(t.epC.base+path, map[string]string{
			server.DebugObsHeader: "1", server.RequestIDHeader: req})
		if err != nil {
			return err
		}
		g.stages = parseServerTiming(resp.header.Get("Server-Timing"))
		raw = resp.body
		return g.fromBody(resp.body)
	})
	return g, raw, err
}

// record emits one operation's rungs as spans, outermost first: each rung
// is the parent of the next one down, and each rung's program stages are
// its children.
func (t *tracer) record(req string, rungs []rung) {
	parent := 0
	for _, g := range rungs {
		id := t.log.add(req, parent, g.name, g.start, g.end)
		t.log.addStages(req, id, g.start, g.stages)
		parent = id
	}
}

// observeServing files the server and client rungs of one read; child is
// the rung below the server (catalog or ingest view).
func (t *tracer) observeServing(srv, cli, child rung) {
	s := &t.s
	s.srvUs = append(s.srvUs, srv.us())
	below := child.us()
	if srv.cached {
		below = 0
	}
	s.srvSelf = append(s.srvSelf, srv.us()-below)
	s.srvAllocs = append(s.srvAllocs, float64(srv.allocs))
	s.srvBytes = append(s.srvBytes, float64(srv.bytes))
	s.srvResp = append(s.srvResp, float64(srv.respBytes))
	s.cliUs = append(s.cliUs, cli.us())
	if cli.cached == srv.cached {
		s.cliSelf = append(s.cliSelf, cli.us()-srv.us())
	}
}

// sameCount fails when two rungs disagree on an answer's size.
func sameCount(q query, rungs ...rung) error {
	for _, g := range rungs[1:] {
		if g.n != rungs[0].n {
			return fmt.Errorf("rungs disagree on %s %q: %s=%d, %s=%d", q.Op, q.P, rungs[0].name, rungs[0].n, g.name, g.n)
		}
	}
	return nil
}

// runRungs runs one operation's rungs, given innermost first: bottom-up
// on even operations, top-down on odd ones, so no rung always meets the
// caches the others warmed.
func runRungs(i int, fns []func() (rung, error)) ([]rung, error) {
	got := make([]rung, len(fns))
	for j := range fns {
		k := j
		if i%2 == 1 {
			k = len(fns) - 1 - j
		}
		g, err := fns[k]()
		if err != nil {
			return nil, err
		}
		got[k] = g
	}
	return got, nil
}

// coreCall is one backend call of the core rung, returning its hit count.
func coreCall(ix core.Backend, q query, st *core.QueryStats) (int, error) {
	switch q.Op {
	case opCount:
		return ix.SearchCountCosted(q.P, q.Tau, st)
	case opTopK:
		h, err := ix.SearchTopKCosted(q.P, q.K, st)
		return len(h), err
	}
	h, err := ix.SearchHitsCosted(q.P, q.Tau, st)
	return len(h), err
}

// viewer is the query surface shared by catalog.Collection and
// ingest.View.
type viewer interface {
	SearchObs(tr *obs.Trace, c *obs.Cost, p []byte, tau float64) ([]catalog.DocHit, error)
	TopKObs(tr *obs.Trace, c *obs.Cost, p []byte, k int) ([]catalog.DocHit, error)
	CountObs(tr *obs.Trace, c *obs.Cost, p []byte, tau float64) (int, error)
}

// catalogCall runs q through a collection's observed entry points.
func catalogCall(v viewer, q query, tr *obs.Trace) (int, error) {
	c := &obs.Cost{}
	switch q.Op {
	case opCount:
		return v.CountObs(tr, c, q.P, q.Tau)
	case opTopK:
		h, err := v.TopKObs(tr, c, q.P, q.K)
		return len(h), err
	}
	h, err := v.SearchObs(tr, c, q.P, q.Tau)
	return len(h), err
}

// trace is the traced pass: a sample of the read stream replayed one query
// at a time down core → catalog → server → client, with the ingest rung
// between catalog and server on ingest-churn, which then goes on writing
// through the ingest rung and compacts once more.
//
// On ingest-churn the core and catalog rungs query a catalog built,
// untimed, over the live documents — a view exposes no per-document
// indexes — which the read replay leaves unchanged. The static workloads
// never reach the ingest layer.
func (r *runner) trace(st *stack, model *churnModel, hot []query) (*tracer, error) {
	t := &tracer{r: r, log: spanLog{t0: time.Now()}, cl: newClient(1), col: st.col}
	var srvC *server.Server
	docs := r.docs
	if r.w.mutable {
		docs = model.snapshot()
		col, err := catalog.New(r.catalogOptions(nil)).Add(collName, docs)
		if err != nil {
			return t, fmt.Errorf("building the live set's catalog: %w", err)
		}
		t.col, t.store, t.reg = col, st.store, st.reg
		t.srvB, srvC = server.NewIngest(st.store, serverConfig(nil)), server.NewIngest(st.store, serverConfig(nil))
	} else {
		t.srvB, srvC = server.New(st.cat, serverConfig(nil)), server.New(st.cat, serverConfig(nil))
	}
	var err error
	if t.epC, err = listen(srvC); err != nil {
		return t, err
	}
	ixs := t.col.DocIndexes()
	budget := time.Now().Add(r.tracedTime())
	for i := 0; i < maxTraced && time.Now().Before(budget); i++ {
		q := r.pool[(i*traceStride)%len(r.pool)]
		if r.w.mutable && i%2 == 0 {
			q = hot[(i/2)%len(hot)]
		}
		req := fmt.Sprintf("ladder-%d-%d", r.seed, i)
		var stats core.QueryStats
		calls, withHits, hits := 0, 0, 0
		var raw []byte
		rungs := []func() (rung, error){
			func() (rung, error) {
				return timed("core", func(g *rung) error {
					for _, ix := range ixs {
						n, err := coreCall(ix, q, &stats)
						if err != nil {
							return err
						}
						calls++
						hits += n
						if n > 0 {
							withHits++
						}
					}
					g.n = hits
					if q.Op == opTopK {
						g.n = min(hits, q.K)
					}
					return nil
				})
			},
			func() (rung, error) { return observed("catalog", t.col, q) },
		}
		if r.w.mutable {
			view, ok := t.store.Get(collName)
			if !ok {
				return t, fmt.Errorf("collection %q vanished from the store", collName)
			}
			rungs = append(rungs, func() (rung, error) { return observed("ingest", view, q) })
		}
		rungs = append(rungs,
			func() (rung, error) { return t.serve(req, q.path()) },
			func() (rung, error) {
				g, b, err := t.loopback(req, q.path())
				raw = b
				return g, err
			})
		r.attempted.Add(1)
		got, err := runRungs(i, rungs)
		if err != nil {
			r.fail(err)
			continue
		}
		slices.Reverse(got) // outermost first: client, server, [ingest,] catalog, core
		cliG, srvG, catG, coreG := got[0], got[1], got[len(got)-2], got[len(got)-1]
		if err := sameCount(q, got...); err != nil {
			r.fail(err)
			continue
		}
		if i%16 == 0 {
			r.keep(docs, q, raw)
		}
		t.record(req, got)
		s := &t.s
		s.coreUs = append(s.coreUs, coreG.us())
		s.coreCalls = append(s.coreCalls, float64(calls))
		s.coreCands = append(s.coreCands, float64(stats.Candidates))
		s.coreSteps = append(s.coreSteps, float64(stats.SuffixSteps))
		s.coreAllocs = append(s.coreAllocs, float64(coreG.allocs))
		s.coreHits += float64(hits)
		s.coreDocsWithHits += float64(withHits)
		s.catUs = append(s.catUs, catG.us())
		if v, ok := stageUs(catG.stages, "fanout"); ok {
			s.catFanout = append(s.catFanout, v)
		}
		if v, ok := stageUs(catG.stages, "backend_search"); ok {
			s.catBusy = append(s.catBusy, v)
		}
		if v, ok := stageUs(catG.stages, "merge"); ok {
			s.catMerge = append(s.catMerge, v)
		}
		s.catAllocs = append(s.catAllocs, float64(catG.allocs))
		if r.w.mutable {
			s.viewUs = append(s.viewUs, got[2].us())
		}
		// The server's next rung down is the one its handler calls: the
		// ingest view on ingest-churn, the catalog otherwise.
		t.observeServing(srvG, cliG, got[2])
	}
	if !r.w.mutable {
		return t, nil
	}
	t.writes(model)
	return t, t.compact()
}

// observed runs q through a collection's or view's observed entry point as
// one rung, its obs.Trace stages becoming the rung's stages.
func observed(name string, v viewer, q query) (rung, error) {
	return timed(name, func(g *rung) error {
		tr := &obs.Trace{}
		n, err := catalogCall(v, q, tr)
		g.n, g.stages = n, tr.Stages()
		return err
	})
}

// writes goes on with ingest-churn's writer for the traced time, at the
// workload's write rate and in its churn cycle, but through the ingest
// rung: Store.Put and Store.Delete called directly, each a span.
func (t *tracer) writes(model *churnModel) {
	r := t.r
	interval := time.Duration(float64(time.Second) / r.w.writeRate)
	start := time.Now()
	end := start.Add(r.tracedTime())
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		w := model.plan(i)
		r.attempted.Add(1)
		g, err := t.storeWrite(w)
		if err != nil {
			r.fail(err)
			continue
		}
		t.record(fmt.Sprintf("ladder-%d-write-%d", r.seed, i), []rung{g})
		model.apply(w)
		r.wrote(t.store, w)
	}
}

// storeWrite is the ingest rung of a write: Store.Put or Store.Delete.
func (t *tracer) storeWrite(w write) (rung, error) {
	if w.del {
		return timed("ingest.delete", func(*rung) error {
			ok, err := t.store.Delete(collName, w.id)
			if err == nil && !ok {
				err = fmt.Errorf("delete %s: no such document", w.id)
			}
			return err
		})
	}
	g, err := timed("ingest.put", func(*rung) error {
		_, err := t.store.Put(collName, w.id, w.doc)
		return err
	})
	if err == nil {
		t.s.putUs = append(t.s.putUs, g.us())
	}
	return g, err
}

// compact records how many compactions completed while the run wrote,
// then compacts the store once more with no writes in flight, so
// ingest.compaction_s.sum always includes one completed compaction.
func (t *tracer) compact() error {
	done := compactions(t.reg)
	t.r.res.metric("ingest.compactions", float64(done), int(done))
	if _, err := t.store.Compact(collName); err != nil {
		return fmt.Errorf("compacting after the write stress: %w", err)
	}
	return nil
}

// perLayerMetrics turns the traced samples into the per-layer metrics.
func (t *tracer) perLayerMetrics(res *result) {
	s := &t.s
	n := len(s.cliUs)
	res.metric("core.query_us.p50", quantile(s.coreUs, 0.5), len(s.coreUs))
	res.metric("core.query_us.p99", quantile(s.coreUs, 0.99), len(s.coreUs))
	res.metric("core.calls_per_query", mean(s.coreCalls), len(s.coreCalls))
	res.metric("core.candidates_per_query", mean(s.coreCands), len(s.coreCands))
	res.metric("core.suffix_steps_per_query", mean(s.coreSteps), len(s.coreSteps))
	res.metric("core.hits_per_candidate", ratio(s.coreHits, sum(s.coreCands)), len(s.coreCands))
	res.metric("core.allocs_per_query", mean(s.coreAllocs), len(s.coreAllocs))
	res.metric("catalog.query_us.p50", quantile(s.catUs, 0.5), len(s.catUs))
	res.metric("catalog.query_us.p99", quantile(s.catUs, 0.99), len(s.catUs))
	res.metric("catalog.fanout_us.p50", quantile(s.catFanout, 0.5), len(s.catFanout))
	res.metric("catalog.backend_busy_us.p50", quantile(s.catBusy, 0.5), len(s.catBusy))
	res.metric("catalog.merge_us.p50", quantile(s.catMerge, 0.5), len(s.catMerge))
	res.metric("catalog.docs_with_hits_ratio", ratio(s.coreDocsWithHits, sum(s.coreCalls)), len(s.coreCalls))
	res.metric("catalog.allocs_per_query", mean(s.catAllocs), len(s.catAllocs))
	res.metric("ingest.view_query_us.p50", quantile(s.viewUs, 0.5), len(s.viewUs))
	res.metric("ingest.view_query_us.p99", quantile(s.viewUs, 0.99), len(s.viewUs))
	res.metric("ingest.put_us.p50", quantile(s.putUs, 0.5), len(s.putUs))
	res.metric("ingest.put_us.p99", quantile(s.putUs, 0.99), len(s.putUs))
	res.metric("server.handler_us.p50", quantile(s.srvUs, 0.5), len(s.srvUs))
	res.metric("server.handler_us.p99", quantile(s.srvUs, 0.99), len(s.srvUs))
	res.metric("server.self_us.p50", quantile(s.srvSelf, 0.5), len(s.srvSelf))
	res.metric("server.allocs_per_request", mean(s.srvAllocs), len(s.srvAllocs))
	res.metric("server.bytes_per_request", mean(s.srvBytes), len(s.srvBytes))
	res.metric("server.response_bytes_per_request", mean(s.srvResp), len(s.srvResp))
	res.metric("client.http_self_us.p50", quantile(s.cliSelf, 0.5), len(s.cliSelf))
	res.tracedClientP50 = quantile(s.cliUs, 0.5)
	res.metric("client.trace_overhead_ratio", ratio(res.tracedClientP50, res.untracedP50), n)
}
