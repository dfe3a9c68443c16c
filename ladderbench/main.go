// Command ladderbench is the repository's benchmark: a latency ladder that
// times the same query stream at every layer of the serving stack — core
// backend → catalog fan-out → ingest view → HTTP handler → loopback client —
// on generated, oracle-checked workloads.
//
// Usage, from the repository root (run.sh builds the command from source
// first):
//
//	bash ladderbench/run.sh --workload listing-many-docs --seed 1 --seconds 10 --trace 0
//	bash ladderbench/run.sh compare --a <dir> --b <dir>
//
// A run first sets the stack up (and reopens it) several times, then runs
// an untraced closed-loop pass over loopback HTTP for the end-to-end
// metrics; with --trace 1 it also replays a sample of the same stream one
// operation at a time down the ladder for the per-layer metrics. Answers
// are checked against internal/baseline. The last line of standard output
// is one JSON object: correct, attempted, failed and the metrics; a
// result file with every metric, the inputs and the spans is written under
// --work. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ladderbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: listing-many-docs, search-long-docs or ingest-churn")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same corpus and query stream")
	seconds := fs.Float64("seconds", 10, "measuring time of the untraced pass; the traced pass gets at most half of it")
	trace := fs.Int("trace", 0, "0: print the end-to-end metrics; 1: also run the traced pass and print the per-layer metrics")
	scale := fs.Float64("scale", 1, "corpus size factor (tests run a toy scale)")
	work := fs.String("work", filepath.Join(".bench_build", "ladderbench"), "directory for result files and the per-run temp dir")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && (*seconds <= 0 || *scale <= 0) {
		err = errors.New("--seconds and --scale must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ladderbench:", err)
		return 2
	}
	res, err := runWorkload(w, *seed, *scale, *seconds, *trace == 1, *work, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ladderbench:", err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "ladderbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload performs one run inside a temp dir under work that is
// removed on exit, also on SIGINT/SIGTERM.
func runWorkload(w workload, seed int64, scale, seconds float64, traced bool, work string, log io.Writer) (*result, error) {
	if w.mutable && runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("%s needs 2 CPUs for its reader and writer (nproc is %d)", w.name, runtime.NumCPU())
	}
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if _, ok := <-sig; ok {
			removeAll(tmp)
			os.Exit(130)
		}
	}()

	res := newResult(w, seed, scale, seconds, traced)
	r := &runner{w: w, seed: seed, scale: scale, dur: time.Duration(seconds * float64(time.Second)),
		traced: traced, work: tmp, log: log, nproc: res.Environment.Clients, res: res}
	if err := r.execute(); err != nil {
		return nil, err
	}
	r.res.OracleChecks = r.runChecks()
	r.res.finish(r)
	if err := r.res.write(filepath.Join(work, "results")); err != nil {
		return nil, err
	}
	r.res.report(log)
	return r.res, nil
}

// removeAll removes dir while a background compaction may still be
// writing into it, retrying until the tree is gone.
func removeAll(dir string) {
	for i := 0; i < 20; i++ {
		if os.RemoveAll(dir) == nil {
			if _, err := os.Stat(dir); os.IsNotExist(err) {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// execute runs set-up, reopen, the untraced pass and (traced) the ladder.
func (r *runner) execute() error {
	start := time.Now()
	r.docs = r.w.corpus(r.seed, r.scale)
	probeQ := r.w.queries(r.docs, 1, r.seed+2)[0]
	cl := newClient(r.nproc)
	defer cl.close()
	r.logf("%s seed %d: %d documents generated in %v", r.w.name, r.seed, len(r.docs), time.Since(start).Round(time.Millisecond))

	var st *stack
	var err error
	if r.w.mutable {
		st, err = r.setupIngest(cl, probeQ)
	} else {
		st, err = r.setupStatic(cl, probeQ)
	}
	if err != nil {
		return err
	}
	defer func() { st.close() }()
	positions, indexBytes := 0, 0
	if r.w.mutable {
		v, _ := st.store.Get(collName)
		positions, indexBytes = v.Positions(), v.IndexBytes()
		r.res.Inputs.Shards = v.Shards()
	} else {
		positions, indexBytes = st.col.Positions(), st.col.IndexBytes()
		r.res.Inputs.Shards = st.col.Shards()
	}
	r.res.Inputs.Docs, r.res.Inputs.Positions = len(r.docs), positions
	r.res.metric("index_bytes_per_pos", ratio(float64(indexBytes), float64(positions)), 1)
	r.res.metric("heap_bytes_per_pos", ratio(liveHeapBytes(), float64(positions)), 1)
	if r.w.mutable {
		reopened, err := r.reopenIngest(cl, st, probeQ)
		if err != nil {
			return err
		}
		st = reopened
	} else if err := r.reopenStatic(cl, st, probeQ); err != nil {
		return err
	}
	r.pool = r.w.queries(r.docs, poolSize(), r.seed+1)
	r.res.Inputs.QueryPool = len(r.pool)
	// Collect the set-up and reopen garbage now rather than mid-measurement.
	runtime.GC()
	r.logf("set up in %v; measuring for %v", time.Since(start).Round(time.Millisecond), r.dur)

	var model *churnModel
	var hot []query
	if r.w.mutable {
		model = newChurnModel(r.docs, r.w.writeDocs(r.seed, r.scale), r.seed+9)
		hot = r.w.hot(r.w.queries(r.docs, r.w.hotKeys, r.seed+5), r.w.hotKeys)
		cs := r.churn(cl, st, model, hot)
		r.recordReads(cs.reads)
		r.recordWrites(cs)
		r.logf("untraced writer: %d writes, at most %d pending documents, %d compactions",
			cs.writes, r.pendingMax, compactions(st.reg))
	} else {
		r.recordReads(r.closedLoop(cl, st.ep))
	}
	r.recordServer(st.reg)
	if !r.traced {
		return nil
	}
	t, err := r.trace(st, model, hot)
	defer t.close()
	if err != nil {
		return err
	}
	t.perLayerMetrics(r.res)
	if r.w.mutable {
		r.recordIngest(t.store, t.reg, model)
	}
	r.res.spans = t.log.spans
	return nil
}

// recordServer reads the serving metrics of the untraced pass from the
// server's registry.
func (r *runner) recordServer(reg *obs.Registry) {
	hits := float64(reg.Counter("ustridx_cache_hits_total", "").Value())
	misses := float64(reg.Counter("ustridx_cache_misses_total", "").Value())
	r.res.metric("server.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	wait := reg.Histogram("ustridx_admission_wait_seconds", "", nil)
	r.res.metric("server.admission_wait_us.mean", ratio(wait.Sum()*1e6, float64(wait.Count())), int(wait.Count()))
}

// compactions reads how many compactions of the collection completed from
// a store's registry.
func compactions(reg *obs.Registry) int64 {
	return reg.CounterVec("ustridx_compactions_total", "", "collection").With(collName).Value()
}

// recordWrites turns the untraced ingest-churn writer's loopback writes,
// each timed from when it was due, into the client write metrics.
func (r *runner) recordWrites(cs churnStats) {
	n := len(cs.writeLat)
	r.res.metric("client.write_us.p50", quantile(cs.writeLat, 0.5), n)
	r.res.metric("client.write_us.p99", quantile(cs.writeLat, 0.99), n)
	r.res.metric("client.writer_late_us.p99", quantile(cs.lateness, 0.99), n)
	r.res.Inputs.Writes = cs.writes
}

// recordIngest reads the write-path metrics of ingest-churn's store — the
// untraced writer's loopback writes and the traced pass's direct ones —
// from its registry and its WAL directory.
func (r *runner) recordIngest(store *ingest.Store, reg *obs.Registry, model *churnModel) {
	res := r.res
	fsync := reg.HistogramVec("ustridx_wal_fsync_seconds", "", nil, "collection").With(collName)
	res.metric("ingest.wal_fsync_us.mean", ratio(fsync.Sum()*1e6, float64(fsync.Count())), int(fsync.Count()))
	compactSec := reg.HistogramVec("ustridx_compaction_seconds", "", nil, "collection").With(collName)
	res.metric("ingest.compaction_s.sum", compactSec.Sum(), int(compactSec.Count()))
	appends := int(reg.CounterVec("ustridx_wal_appends_total", "", "collection").With(collName).Value())
	res.metric("ingest.pending_docs.max", float64(r.pendingMax), appends)
	walBytes := reg.CounterVec("ustridx_wal_appended_bytes_total", "", "collection").With(collName).Value()
	res.metric("ingest.wal_bytes_per_user_byte", ratio(float64(walBytes), float64(r.userBytes)), appends)
	live := model.snapshot()
	res.metric("ingest.dir_bytes_per_live_byte",
		ratio(float64(dirBytes(store.Options().Dir)), float64(encodedBytes(live))), len(live))
}

// environment records what the numbers were measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Clients is the number of closed-loop client goroutines and
	// connections of the untraced static passes: nproc, at most 2.
	Clients int `json:"clients"`
}

// inputs records the workload's generated inputs and settings.
type inputs struct {
	Corpus           string     `json:"corpus"`
	Docs             int        `json:"docs"`
	Positions        int        `json:"positions"`
	Theta            float64    `json:"theta"`
	Backend          string     `json:"backend"`
	TauMin           float64    `json:"tau_min"`
	Shards           int        `json:"shards"`
	Mix              string     `json:"mix"`
	PatternLengths   [2]int     `json:"pattern_lengths"`
	TauRange         [2]float64 `json:"tau_range"`
	KMax             int        `json:"k_max"`
	QueryPool        int        `json:"query_pool"`
	CacheEntries     int        `json:"cache_entries"`
	FlushPolicy      string     `json:"flush_policy,omitempty"`
	CompactThreshold int        `json:"compact_threshold,omitempty"`
	WriteRate        float64    `json:"write_rate_per_s,omitempty"`
	HotKeys          int        `json:"hot_keys,omitempty"`
	Writes           int        `json:"writes,omitempty"`
	SetupRuns        []float64  `json:"setup_runs_s"`
	ReopenRuns       []float64  `json:"reopen_runs_s"`
}

func workloadInputs(w workload) inputs {
	in := inputs{Theta: w.theta, Backend: w.backend, TauMin: tauMin,
		Mix:            fmt.Sprintf("search %d%%, count %d%%, top-k %d%%", w.mix[0], w.mix[1], w.mix[2]),
		PatternLengths: [2]int{w.mMin, w.mMax}, TauRange: [2]float64{w.tauLo, w.tauHi}, KMax: w.kMax,
		CacheEntries: server.DefaultCacheEntries}
	if w.docs > 0 {
		in.Corpus = fmt.Sprintf("gen.Single: %d documents × %d positions", w.docs, w.docLen)
	} else {
		in.Corpus = fmt.Sprintf("gen.Collection: %d positions, document lengths 20–45", w.positions)
	}
	if w.mutable {
		in.Corpus += ", seeded through Store.Put"
		in.FlushPolicy = "fsync on every WAL append (the daemon default)"
		in.CompactThreshold = ingest.DefaultCompactThreshold
		in.WriteRate, in.HotKeys = w.writeRate, w.hotKeys
	}
	return in
}
