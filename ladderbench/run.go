package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/ustring"
)

// reservoirSize is how many untraced responses each client keeps for the
// oracle check after the timed phase.
const reservoirSize = 96

// checkEvery is the ingest-churn writer's check cadence: after every
// checkEvery-th acknowledged write it sends check queries whose answers are
// compared with the oracle over the live set at that moment.
const checkEvery = 2

// runner holds one benchmark run: the workload, its generated inputs, the
// serving stack under test and what has been measured so far.
type runner struct {
	w      workload
	seed   int64
	scale  float64
	dur    time.Duration
	traced bool
	work   string // per-run temp dir, removed on exit
	log    io.Writer
	nproc  int

	docs []*ustring.String // static corpus, or the ingest seed set
	pool []query           // the uniform read stream

	// Write-path totals over every pass, for the ingest metrics: bytes
	// the user PUT and the most pending documents (delta + tombstones)
	// seen after any acknowledged write.
	userBytes  int64
	pendingMax int

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string
	checks            []pendingCheck

	res *result
}

// pendingCheck is a response kept for the oracle, with the documents the
// server answered it over.
type pendingCheck struct {
	docs []*ustring.String
	q    query
	body []byte
}

// fail counts one failed operation.
func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

func (r *runner) keep(docs []*ustring.String, q query, body []byte) {
	r.mu.Lock()
	r.checks = append(r.checks, pendingCheck{docs, q, body})
	r.mu.Unlock()
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "ladderbench: "+format+"\n", args...)
}

// catalogOptions are the daemon's defaults (-taumin 0.1, GOMAXPROCS
// shards, mmap off) with the workload's backend.
func (r *runner) catalogOptions(reg *obs.Registry) catalog.Options {
	return catalog.Options{TauMin: tauMin, Backend: r.w.backend, Metrics: reg}
}

// serverConfig is the daemon's default server configuration: result cache
// on at its default capacity, open admission, slow log off.
func serverConfig(reg *obs.Registry) server.Config {
	return server.Config{CacheEntries: server.DefaultCacheEntries, Metrics: reg}
}

// stack is one serving stack under test.
type stack struct {
	cat   *catalog.Catalog    // static workloads
	col   *catalog.Collection // static workloads
	store *ingest.Store       // ingest-churn
	ep    *endpoint
	reg   *obs.Registry
}

func (s *stack) close() {
	if s.ep != nil {
		s.ep.close()
	}
	if s.store != nil {
		s.store.Close()
	}
}

// probe sends the first loopback query to a fresh stack and returns when
// the answer is in; the answer is checked against the oracle afterwards, so
// the check's cost stays out of the timing.
func (r *runner) probe(cl *client, ep *endpoint, q query) []byte {
	r.attempted.Add(1)
	resp, err := cl.get(ep.base+q.path(), nil)
	if err != nil {
		r.fail(err)
		return nil
	}
	return resp.body
}

func (r *runner) checkNow(docs []*ustring.String, q query, body []byte) {
	if body == nil {
		return
	}
	if err := checkAnswer(docs, q, body); err != nil {
		r.fail(fmt.Errorf("oracle: %w", err))
	}
}

// setupStatic builds the catalog and server setupRuns times, keeping the
// last stack, and records setup_s.
func (r *runner) setupStatic(cl *client, probeQ query) (*stack, error) {
	var times []float64
	var keep *stack
	for i := 0; setupRuns.more(i, times); i++ {
		if keep != nil {
			keep.close()
			keep = nil
			runtime.GC()
		}
		reg := obs.NewRegistry()
		begin := time.Now()
		cat := catalog.New(r.catalogOptions(reg))
		col, err := cat.Add(collName, r.docs)
		if err != nil {
			return nil, fmt.Errorf("building catalog: %w", err)
		}
		ep, err := listen(server.New(cat, serverConfig(reg)))
		if err != nil {
			return nil, err
		}
		body := r.probe(cl, ep, probeQ)
		times = append(times, time.Since(begin).Seconds())
		r.checkNow(r.docs, probeQ, body)
		keep = &stack{cat: cat, col: col, ep: ep, reg: reg}
	}
	r.res.metric("setup_s", quantile(times, 0.5), len(times))
	r.res.Inputs.SetupRuns = times
	return keep, nil
}

// reopenStatic saves the catalog (untimed) and loads it reopenRuns times
// with the daemon's default options, recording reopen_s.
func (r *runner) reopenStatic(cl *client, st *stack, probeQ query) error {
	dir := filepath.Join(r.work, "index-cache")
	if err := st.cat.Save(dir); err != nil {
		return fmt.Errorf("saving catalog: %w", err)
	}
	var times []float64
	for i := 0; reopenRuns.more(i, times); i++ {
		runtime.GC()
		begin := time.Now()
		loaded, err := catalog.Load(dir, r.catalogOptions(obs.NewRegistry()))
		if err != nil {
			return fmt.Errorf("loading catalog: %w", err)
		}
		ep, err := listen(server.New(loaded, serverConfig(nil)))
		if err != nil {
			return err
		}
		body := r.probe(cl, ep, probeQ)
		times = append(times, time.Since(begin).Seconds())
		ep.close()
		r.checkNow(r.docs, probeQ, body)
	}
	r.res.metric("reopen_s", quantile(times, 0.5), len(times))
	r.res.Inputs.ReopenRuns = times
	return nil
}

// docID names seeded and written documents; zero padding keeps the
// store's lexicographic numbering equal to creation order.
func docID(i int) string { return fmt.Sprintf("doc-%06d", i) }

// ingestOptions are the daemon's -wal defaults: fsync on every append,
// compaction threshold 64.
func (r *runner) ingestOptions(dir string, reg *obs.Registry) ingest.Options {
	return ingest.Options{Dir: dir, Catalog: r.catalogOptions(reg), Metrics: reg}
}

// setupIngest seeds a fresh store through Store.Put setupRuns times,
// keeping the last, and records setup_s.
func (r *runner) setupIngest(cl *client, probeQ query) (*stack, error) {
	var times []float64
	var keep *stack
	for i := 0; setupRuns.more(i, times); i++ {
		if keep != nil {
			keep.close()
			keep = nil
			runtime.GC()
		}
		dir := filepath.Join(r.work, fmt.Sprintf("wal-%d", i))
		reg := obs.NewRegistry()
		begin := time.Now()
		store, err := ingest.Open(nil, r.ingestOptions(dir, reg))
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		for d, doc := range r.docs {
			if _, err := store.Put(collName, docID(d), doc); err != nil {
				store.Close()
				return nil, fmt.Errorf("seeding store: %w", err)
			}
		}
		ep, err := listen(server.NewIngest(store, serverConfig(reg)))
		if err != nil {
			store.Close()
			return nil, err
		}
		body := r.probe(cl, ep, probeQ)
		times = append(times, time.Since(begin).Seconds())
		r.checkNow(r.docs, probeQ, body)
		keep = &stack{store: store, ep: ep, reg: reg}
	}
	r.res.metric("setup_s", quantile(times, 0.5), len(times))
	r.res.Inputs.SetupRuns = times
	// Lazy set-up finishes before anything else is timed: fold the seeded
	// delta into a checkpointed base.
	if _, err := keep.store.Compact(collName); err != nil {
		keep.close()
		return nil, fmt.Errorf("compacting seeded store: %w", err)
	}
	return keep, nil
}

// reopenIngest closes and reopens the store on its WAL directory
// reopenRuns times, recording reopen_s; the last reopened stack (with a
// fresh registry) serves the timed phases.
func (r *runner) reopenIngest(cl *client, st *stack, probeQ query) (*stack, error) {
	dir := st.store.Options().Dir
	var times []float64
	for i := 0; reopenRuns.more(i, times); i++ {
		st.ep.close()
		st.ep = nil
		runtime.GC()
		reg := obs.NewRegistry()
		begin := time.Now()
		if err := st.store.Close(); err != nil {
			return nil, fmt.Errorf("closing store: %w", err)
		}
		store, err := ingest.Open(nil, r.ingestOptions(dir, reg))
		if err != nil {
			return nil, fmt.Errorf("reopening store: %w", err)
		}
		ep, err := listen(server.NewIngest(store, serverConfig(reg)))
		if err != nil {
			store.Close()
			return nil, err
		}
		body := r.probe(cl, ep, probeQ)
		times = append(times, time.Since(begin).Seconds())
		r.checkNow(r.docs, probeQ, body)
		st = &stack{store: store, ep: ep, reg: reg}
	}
	r.res.metric("reopen_s", quantile(times, 0.5), len(times))
	r.res.Inputs.ReopenRuns = times
	return st, nil
}

// liveHeapBytes forces a GC and reads the live heap from runtime/metrics.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// windows is how many equal windows the untraced pass's measuring time is
// cut into, so a burst of outside interference moves some windows, not the
// result.
const windows = 10

// warmup is how long the read loop runs before measuring starts.
const warmup = time.Second

// readStats is what the untraced pass measured for reads.
type readStats struct {
	dur   time.Duration
	reads [windows][]float64 // latencies in µs, by window of completion
}

// add files one read that completed at offset at of the measuring time;
// reads completing during the warm-up or after the end are not counted.
func (rs *readStats) add(at time.Duration, lat time.Duration) {
	w := int(int64(at) * windows / int64(rs.dur))
	if at < 0 || w >= windows {
		return
	}
	rs.reads[w] = append(rs.reads[w], float64(lat.Nanoseconds())/1e3)
}

func (rs *readStats) merge(o *readStats) {
	for w := range rs.reads {
		rs.reads[w] = append(rs.reads[w], o.reads[w]...)
	}
}

// closedLoop runs the untraced static pass: nproc clients, each sending
// its next read once the previous one completed, walking the shared pool
// in order so the result cache sees no repeats. A reservoir sample of
// responses is kept for the oracle.
func (r *runner) closedLoop(cl *client, ep *endpoint) readStats {
	var next atomic.Int64
	stats := make([]readStats, r.nproc)
	for c := range stats {
		stats[c].dur = r.dur
	}
	begin := time.Now().Add(warmup)
	deadline := begin.Add(r.dur)
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*31 + int64(c)))
			var res []pendingCheck
			seen := 0
			for time.Now().Before(deadline) {
				q := r.pool[int(next.Add(1)-1)%len(r.pool)]
				r.attempted.Add(1)
				t0 := time.Now()
				resp, err := cl.get(ep.base+q.path(), nil)
				done := time.Now()
				if err != nil {
					r.fail(err)
					continue
				}
				stats[c].add(done.Sub(begin), done.Sub(t0))
				if seen < reservoirSize {
					res = append(res, pendingCheck{r.docs, q, resp.body})
				} else if j := rng.Intn(seen + 1); j < reservoirSize {
					res[j] = pendingCheck{r.docs, q, resp.body}
				}
				seen++
			}
			for _, pc := range res {
				r.keep(pc.docs, pc.q, pc.body)
			}
		}(c)
	}
	wg.Wait()
	out := readStats{dur: r.dur}
	for c := range stats {
		out.merge(&stats[c])
	}
	return out
}

// recordReads turns the untraced pass's reads into the end-to-end latency
// and throughput metrics: the median and the 90th percentile over every
// measured read, and throughput as the median of the per-window rates. The
// tail is gated at the 90th percentile: the 95th sits at the knee between
// fast and slow reads on search-long-docs, and it and the 99th spread too
// widely across runs to gate on (see README.md).
func (r *runner) recordReads(rs readStats) {
	var qps, p50, p90, all []float64
	for _, lat := range rs.reads {
		qps = append(qps, float64(len(lat))/(rs.dur.Seconds()/windows))
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		all = append(all, lat...)
	}
	n := len(all)
	r.res.Windows = map[string][]float64{"qps": qps, "query_p50_us": p50, "query_p90_us": p90}
	r.res.metric("qps", quantile(qps, 0.5), n)
	r.res.untracedP50 = quantile(all, 0.5)
	r.res.metric("query_p50_us", r.res.untracedP50, n)
	r.res.metric("query_p90_us", quantile(all, 0.9), n)
	r.res.metric("client.query_us.p99", quantile(all, 0.99), n)
}

// churnModel is the writer's model of the live document set; the writer is
// the only mutator during the timed phases, so after each acknowledged
// write the model equals the store.
type churnModel struct {
	live    map[string]*ustring.String
	order   []string // live ids, ascending (= the store's numbering)
	nextID  int
	docs    []*ustring.String // write payloads, used round-robin
	nextDoc int
	rng     *rand.Rand
}

func newChurnModel(seedDocs, writeDocs []*ustring.String, seed int64) *churnModel {
	m := &churnModel{live: make(map[string]*ustring.String), docs: writeDocs, rng: rand.New(rand.NewSource(seed))}
	for i, d := range seedDocs {
		id := docID(i)
		m.live[id] = d
		m.order = append(m.order, id)
	}
	m.nextID = len(seedDocs)
	return m
}

// write is one planned mutation.
type write struct {
	del  bool
	id   string
	doc  *ustring.String
	body []byte
}

// plan returns the i-th write of the churn cycle: put a new id, replace a
// random live id, delete the oldest id — two puts to one delete, with the
// live set's size unchanged per cycle.
func (m *churnModel) plan(i int) write {
	switch i % 3 {
	case 0:
		id := docID(m.nextID)
		m.nextID++
		return m.put(id)
	case 1:
		return m.put(m.order[m.rng.Intn(len(m.order))])
	}
	return write{del: true, id: m.order[0]}
}

func (m *churnModel) put(id string) write {
	doc := m.docs[m.nextDoc%len(m.docs)]
	m.nextDoc++
	var sb strings.Builder
	ustring.Marshal(&sb, doc) // generated characters are always encodable
	return write{id: id, doc: doc, body: []byte(sb.String())}
}

// apply records an acknowledged write in the model.
func (m *churnModel) apply(w write) {
	if w.del {
		delete(m.live, w.id)
		i := sort.SearchStrings(m.order, w.id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		return
	}
	if _, ok := m.live[w.id]; !ok {
		i := sort.SearchStrings(m.order, w.id)
		m.order = append(m.order, "")
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = w.id
	}
	m.live[w.id] = w.doc
}

// snapshot returns the live documents in the store's numbering.
func (m *churnModel) snapshot() []*ustring.String {
	out := make([]*ustring.String, len(m.order))
	for i, id := range m.order {
		out[i] = m.live[id]
	}
	return out
}

// sendWrite performs w over loopback.
func sendWrite(cl *client, base string, w write) (response, error) {
	url := base + "/v1/collections/" + collName + "/documents/" + w.id
	method, body := http.MethodPut, w.body
	if w.del {
		method, body = http.MethodDelete, nil
	}
	resp, err := cl.do(method, url, body, nil)
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.status, strings.TrimSpace(string(resp.body)))
	}
	return resp, err
}

// wrote records an acknowledged write in the write-path totals.
func (r *runner) wrote(store *ingest.Store, w write) {
	r.userBytes += int64(len(w.body))
	for _, cs := range store.Status() {
		r.pendingMax = max(r.pendingMax, cs.DeltaDocs+cs.Tombstones)
	}
}

// churnStats is what the untraced ingest-churn pass measured.
type churnStats struct {
	reads              readStats
	writeLat, lateness []float64 // µs
	writes             int
}

// churn runs the untraced ingest-churn pass: one closed-loop reader (half
// hot keys, half the uniform stream) beside one open-loop writer. Both
// start warmup before measuring does.
func (r *runner) churn(cl *client, st *stack, model *churnModel, hot []query) churnStats {
	out := churnStats{reads: readStats{dur: r.dur}}
	start := time.Now()
	begin := start.Add(warmup)
	deadline := begin.Add(r.dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(r.seed*37 + 1))
		next := 0
		for time.Now().Before(deadline) {
			var q query
			if rng.Intn(2) == 0 {
				q = hot[rng.Intn(len(hot))]
			} else {
				q = r.pool[next%len(r.pool)]
				next++
			}
			r.attempted.Add(1)
			t0 := time.Now()
			_, err := cl.get(st.ep.base+q.path(), nil)
			done := time.Now()
			if err != nil {
				r.fail(err)
				continue
			}
			out.reads.add(done.Sub(begin), done.Sub(t0))
		}
	}()
	go func() {
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / r.w.writeRate)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			w := model.plan(i)
			r.attempted.Add(1)
			late := time.Since(due)
			if _, err := sendWrite(cl, st.ep.base, w); err != nil {
				r.fail(err)
				continue
			}
			if !due.Before(begin) {
				out.lateness = append(out.lateness, float64(late.Nanoseconds())/1e3)
				out.writeLat = append(out.writeLat, float64(time.Since(due).Nanoseconds())/1e3)
			}
			out.writes++
			model.apply(w)
			r.wrote(st.store, w)
			if i%checkEvery == checkEvery-1 {
				r.churnCheck(cl, st.ep, model, hot[(i/checkEvery)%len(hot)], r.pool[(i/checkEvery)*7%len(r.pool)])
			}
		}
	}()
	wg.Wait()
	return out
}

// churnCheck asks a hot key twice (the second answer usually from the
// result cache) and one uniform query, to be compared with the oracle over
// the live set as of the last acknowledged write.
func (r *runner) churnCheck(cl *client, ep *endpoint, model *churnModel, hotQ, uniQ query) {
	docs := model.snapshot()
	for _, q := range []query{hotQ, hotQ, uniQ} {
		r.attempted.Add(1)
		resp, err := cl.get(ep.base+q.path(), nil)
		if err != nil {
			r.fail(err)
			continue
		}
		r.keep(docs, q, resp.body)
	}
}

// runChecks compares every kept response with the oracle.
func (r *runner) runChecks() int {
	for _, pc := range r.checks {
		if err := checkAnswer(pc.docs, pc.q, pc.body); err != nil {
			r.fail(fmt.Errorf("oracle: %w", err))
		}
	}
	return len(r.checks)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// encodedBytes is the text-encoded size of docs: the bytes a user PUTs.
func encodedBytes(docs []*ustring.String) int64 {
	var n int64
	for _, d := range docs {
		var sb strings.Builder
		ustring.Marshal(&sb, d)
		n += int64(sb.Len())
	}
	return n
}
