package main

import (
	"math"
	"sort"
)

// metricDef documents one reported metric: its unit and direction, the
// layer it belongs to, and — for per-layer metrics — the end-to-end metric
// and workload an optimisation of that layer is predicted to move. The
// table is the single source of truth: BENCHMARK.json must list the same
// names, units, directions and bounds (checked by
// TestBenchmarkJSONMatchesTable), and every result file carries the table
// so a reader of one run needs nothing else.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Layer  string  `json:"layer"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves"`
}

// endToEnd are the metrics a user of the daemon sees. Every workload
// reports all of them, and none of them can be 0 on a successful run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "end_to_end", 0.25,
		"median of 3 or more set-ups: generated inputs in memory to the first correct loopback answer (catalog build, or seeding through Store.Put on ingest-churn)"},
	{"reopen_s", "s", "lower", "end_to_end", 0.25,
		"median of 5 or more reopens: catalog.Load (or Store.Close + ingest.Open) to the first correct loopback answer"},
	{"query_p50_us", "us", "lower", "end_to_end", 0.25,
		"median loopback read latency of the untraced pass"},
	{"query_p90_us", "us", "lower", "end_to_end", 0.25,
		"90th-percentile loopback read latency over every read of the untraced pass (the 95th and 99th spread too widely across runs to gate on; see client.query_us.p99)"},
	{"qps", "1/s", "higher", "end_to_end", 0.25,
		"reads completed per second of the untraced pass"},
	{"index_bytes_per_pos", "B/pos", "lower", "end_to_end", 0.05,
		"resident index bytes per indexed position after set-up"},
	{"heap_bytes_per_pos", "B/pos", "lower", "end_to_end", 0.05,
		"live heap after set-up and a GC (runtime/metrics), per indexed position"},
}

// perLayer are the metrics of single layers, read from the traced pass
// (latencies, counts, allocations, direct writes), from the untraced pass
// (read tail, loopback writes) and from the metrics registries of the
// untraced server (cache, admission) and of ingest-churn's store (write
// path). Only ingest-churn reaches the ingest layer and writes; on the
// other workloads those metrics read 0 from 0 samples.
var perLayer = []metricDef{
	{"core.query_us.p50", "us", "lower", "core", 0, "query_p50_us on listing-many-docs (via calls per query)"},
	{"core.query_us.p99", "us", "lower", "core", 0, "client.query_us.p99 and qps on search-long-docs"},
	{"core.calls_per_query", "count", "lower", "core", 0, "query_p50_us and qps on listing-many-docs"},
	{"core.candidates_per_query", "count", "lower", "core", 0, "client.query_us.p99 and qps on search-long-docs"},
	{"core.suffix_steps_per_query", "count", "lower", "core", 0, "client.query_us.p99 and qps on search-long-docs"},
	{"core.hits_per_candidate", "ratio", "higher", "core", 0, "client.query_us.p99 and qps on search-long-docs"},
	{"core.allocs_per_query", "count", "lower", "core", 0, "query_p50_us on listing-many-docs"},

	{"catalog.query_us.p50", "us", "lower", "catalog", 0, "query_p50_us and qps on listing-many-docs; flat on search-long-docs"},
	{"catalog.query_us.p99", "us", "lower", "catalog", 0, "query_p90_us on listing-many-docs; flat on search-long-docs"},
	{"catalog.fanout_us.p50", "us", "lower", "catalog", 0, "query_p50_us on listing-many-docs"},
	{"catalog.backend_busy_us.p50", "us", "lower", "catalog", 0, "qps on listing-many-docs"},
	{"catalog.merge_us.p50", "us", "lower", "catalog", 0, "query_p50_us on listing-many-docs"},
	{"catalog.docs_with_hits_ratio", "ratio", "higher", "catalog", 0, "query_p50_us on listing-many-docs (fan-out waste)"},
	{"catalog.allocs_per_query", "count", "lower", "catalog", 0, "query_p50_us on listing-many-docs"},

	{"ingest.view_query_us.p50", "us", "lower", "ingest", 0, "query_p50_us on ingest-churn"},
	{"ingest.view_query_us.p99", "us", "lower", "ingest", 0, "query_p90_us on ingest-churn"},
	{"ingest.put_us.p50", "us", "lower", "ingest", 0, "client.write_us.p50 on ingest-churn"},
	{"ingest.put_us.p99", "us", "lower", "ingest", 0, "client.write_us.p99 on ingest-churn"},
	{"ingest.wal_fsync_us.mean", "us", "lower", "ingest", 0, "client.write_us.p50 on ingest-churn"},
	{"ingest.compactions", "count", "higher", "ingest", 0, "ingest.pending_docs.max and query_p90_us on ingest-churn (compaction keeping up with writes)"},
	{"ingest.compaction_s.sum", "s", "lower", "ingest", 0, "ingest.compactions and client.write_us.p99 on ingest-churn"},
	{"ingest.pending_docs.max", "count", "lower", "ingest", 0, "query_p90_us on ingest-churn"},
	{"ingest.wal_bytes_per_user_byte", "ratio", "lower", "ingest", 0, "client.write_us.p50 on ingest-churn"},
	{"ingest.dir_bytes_per_live_byte", "ratio", "lower", "ingest", 0, "reopen_s on ingest-churn"},

	{"server.handler_us.p50", "us", "lower", "server", 0, "query_p50_us on search-long-docs; flat on listing-many-docs"},
	{"server.handler_us.p99", "us", "lower", "server", 0, "client.query_us.p99 on search-long-docs"},
	{"server.self_us.p50", "us", "lower", "server", 0, "query_p50_us on search-long-docs; flat on listing-many-docs"},
	{"server.allocs_per_request", "count", "lower", "server", 0, "query_p50_us on search-long-docs"},
	{"server.bytes_per_request", "B", "lower", "server", 0, "query_p50_us on search-long-docs"},
	{"server.response_bytes_per_request", "B", "lower", "server", 0, "query_p50_us on search-long-docs"},
	{"server.cache_hit_ratio", "ratio", "higher", "server", 0, "query_p50_us on ingest-churn (hot keys)"},
	{"server.admission_wait_us.mean", "us", "lower", "server", 0, "query_p90_us on every workload"},

	{"client.query_us.p99", "us", "lower", "client", 0, "the untraced pass's 99th-percentile loopback read latency: the tail query_p90_us stands in for"},
	{"client.http_self_us.p50", "us", "lower", "client", 0, "query_p50_us on search-long-docs"},
	{"client.writer_late_us.p99", "us", "lower", "client", 0, "client.write_us.p99 on ingest-churn"},
	{"client.trace_overhead_ratio", "ratio", "lower", "client", 0, "none: measurement overhead of the traced pass"},
	{"client.write_us.p50", "us", "lower", "client", 0, "the untraced ingest-churn writer's loopback write latency, timed from when due"},
	{"client.write_us.p99", "us", "lower", "client", 0, "the untraced ingest-churn writer's loopback write tail, timed from when due"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
