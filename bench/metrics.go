package main

// metricDef names one metric the benchmark reports. The names are the
// contract later performance work is measured against: do not rename.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is, for an end-to-end metric, the share of the baseline's
	// median by which it may get worse before that is a regression.
	Bound float64
	// ExactOnSameSeed marks a count that repeats to the last digit when
	// the seed is the same: between two same-seed runs any worsening at
	// all is a regression.
	ExactOnSameSeed bool
	// Layer and Moves document a per-layer metric: which layer it
	// belongs to, and which end-to-end metric on which workload an
	// improvement of it is predicted to show on.
	Layer, Moves string
}

// endToEndMetrics are what a user of the system sees, the same on every
// workload. Failures are not a metric of their own: a run reports
// attempted and failed operations, and any failure fails the run.
//
// The bounds are set from the spread between runs with different seeds
// on a shared 2-vCPU machine whose speed wanders by ±15 % over seconds
// to minutes: quartile ranges of 4-18 % (once 20 %) of the median on
// the time metrics, at most 6 % on the counts, 3 % on the heap. A count
// bound is three times the spread it has to absorb; the time metrics
// get 0.25, the most the PR driver takes.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "access_cost_per_query", Unit: "accesses", Better: "lower", Bound: 0.20, ExactOnSameSeed: true},
	{Name: "allocs_per_query", Unit: "objects", Better: "lower", Bound: 0.15},
	{Name: "alloc_kb_per_query", Unit: "kB", Better: "lower", Bound: 0.20},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayerMetrics are measured in the traced pass and the ladder only.
var perLayerMetrics = []metricDef{
	{Name: "gradedset.range_ns_per_entry", Unit: "ns", Better: "lower", Layer: "gradedset", Moves: "latency_p50_ms on " + wEmbedConj},
	{Name: "gradedset.grade_ns", Unit: "ns", Better: "lower", Layer: "gradedset", Moves: "latency_p50_ms on " + wEmbedConj},
	{Name: "gradedset.updated_us", Unit: "us", Better: "lower", Layer: "gradedset", Moves: "throughput_qps, alloc_kb_per_query on " + wEmbedWrites},

	{Name: "subsys.sorted_calls_per_query", Unit: "count", Better: "lower", Layer: "subsys", Moves: "latency_p50_ms on " + wEmbedConj + "; latency_p95_ms on " + wServeHot},
	{Name: "subsys.sorted_entries_per_call", Unit: "count", Better: "higher", Layer: "subsys", Moves: "latency_p50_ms on " + wEmbedConj + ", " + wRemoteSources},
	{Name: "subsys.random_calls_per_query", Unit: "count", Better: "lower", Layer: "subsys", Moves: "latency_p50_ms on " + wEmbedConj + "; latency_p95_ms on " + wServeHot},
	{Name: "subsys.random_calls_per_access", Unit: "ratio", Better: "lower", Layer: "subsys", Moves: "latency_p50_ms on " + wRemoteSources + " (batched random access)"},
	{Name: "subsys.source_busy_us_per_query", Unit: "us", Better: "lower", Layer: "subsys", Moves: "latency_p50_ms on " + wEmbedConj + ", " + wRemoteSources},
	{Name: "subsys.counted_grade_hit_ns", Unit: "ns", Better: "lower", Layer: "subsys", Moves: "latency_p50_ms on " + wEmbedConj},
	{Name: "subsys.counted_grade_miss_ns", Unit: "ns", Better: "lower", Layer: "subsys", Moves: "latency_p50_ms on " + wEmbedConj},
	{Name: "subsys.update_us", Unit: "us", Better: "lower", Layer: "subsys", Moves: "throughput_qps on " + wEmbedWrites},

	{Name: "agg.apply_ns", Unit: "ns", Better: "lower", Layer: "agg", Moves: "latency_p50_ms on " + wEmbedConj + " (small share)"},

	{Name: "core.evaluate_us", Unit: "us", Better: "lower", Layer: "core", Moves: "latency_p50_ms on " + wEmbedConj + "; latency_p95_ms on " + wServeHot + ", " + wEmbedWrites},
	{Name: "core.evaluate_allocs", Unit: "objects", Better: "lower", Layer: "core", Moves: "allocs_per_query on " + wEmbedConj},
	{Name: "core.sorted_per_query", Unit: "accesses", Better: "lower", Layer: "core", Moves: "access_cost_per_query everywhere"},
	{Name: "core.random_per_query", Unit: "accesses", Better: "lower", Layer: "core", Moves: "access_cost_per_query everywhere"},
	{Name: "core.accesses_per_result", Unit: "accesses", Better: "lower", Layer: "core", Moves: "access_cost_per_query everywhere"},
	{Name: "core.concurrent_us", Unit: "us", Better: "lower", Layer: "core", Moves: "no end-to-end workload on 2 cores; recorded to decide which executor survives"},
	{Name: "core.pipelined_us", Unit: "us", Better: "lower", Layer: "core", Moves: "latency_p50_ms on " + wRemoteSources},
	{Name: "core.sharded2_us", Unit: "us", Better: "lower", Layer: "core", Moves: "no end-to-end workload on 2 cores; recorded to decide what survives"},
	{Name: "core.prefetch_batches_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: "latency_p50_ms on " + wRemoteSources},
	{Name: "core.prefetch_stalls_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: "latency_p50_ms on " + wRemoteSources},

	{Name: "query.parse_us", Unit: "us", Better: "lower", Layer: "query", Moves: "latency_p50_ms on " + wServeHot + " (strings are parsed per request there)"},

	{Name: "middleware.plan_us", Unit: "us", Better: "lower", Layer: "middleware", Moves: "latency_p50_ms on " + wEmbedConj},
	{Name: "middleware.query_us", Unit: "us", Better: "lower", Layer: "middleware", Moves: "latency_p50_ms on " + wEmbedConj + "; latency_p95_ms on " + wServeHot},
	{Name: "middleware.query_allocs", Unit: "objects", Better: "lower", Layer: "middleware", Moves: "allocs_per_query, alloc_kb_per_query on " + wEmbedConj},
	{Name: "middleware.overhead_us", Unit: "us", Better: "lower", Layer: "middleware", Moves: "latency_p50_ms on " + wEmbedConj},
	{Name: "middleware.overhead_allocs", Unit: "objects", Better: "lower", Layer: "middleware", Moves: "allocs_per_query on " + wEmbedConj},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "cache", Moves: "access_cost_per_query, throughput_qps on " + wEmbedWrites + ", " + wServeHot},
	{Name: "cache.evictions_per_kq", Unit: "count", Better: "lower", Layer: "cache", Moves: "access_cost_per_query on " + wServeHot},
	{Name: "cache.invalidations_per_write", Unit: "ratio", Better: "lower", Layer: "cache", Moves: "access_cost_per_query, throughput_qps on " + wEmbedWrites},
	{Name: "cache.hit_us", Unit: "us", Better: "lower", Layer: "cache", Moves: "latency_p50_ms on " + wEmbedWrites + ", " + wServeHot},
	{Name: "cache.miss_overhead_us", Unit: "us", Better: "lower", Layer: "cache", Moves: "latency_p95_ms on " + wEmbedWrites + ", " + wServeHot},

	{Name: "sched.acquire_settle_us", Unit: "us", Better: "lower", Layer: "sched", Moves: "latency_p50_ms on " + wServeHot + " only"},
	{Name: "sched.shed_ratio", Unit: "ratio", Better: "lower", Layer: "sched", Moves: "must stay 0 on " + wServeHot + " (a shed is a failure)"},

	{Name: "wire.client_self_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "latency_p50_ms on " + wServeHot},
	{Name: "wire.transport_self_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "latency_p50_ms on " + wServeHot},
	{Name: "wire.server_codec_self_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "latency_p50_ms on " + wServeHot},
	{Name: "wire.engine_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "latency_p95_ms on " + wServeHot},
	{Name: "wire.rpcs_per_query", Unit: "count", Better: "lower", Layer: "wire", Moves: "latency_p50_ms, throughput_qps, allocs_per_query on " + wRemoteSources},
	{Name: "wire.entries_rpcs_per_query", Unit: "count", Better: "lower", Layer: "wire", Moves: "latency_p50_ms on " + wRemoteSources},
	{Name: "wire.grade_rpcs_per_query", Unit: "count", Better: "lower", Layer: "wire", Moves: "latency_p50_ms, throughput_qps on " + wRemoteSources},
	{Name: "wire.req_bytes_per_query", Unit: "B", Better: "lower", Layer: "wire", Moves: "throughput_qps on " + wRemoteSources},
	{Name: "wire.resp_bytes_per_query", Unit: "B", Better: "lower", Layer: "wire", Moves: "throughput_qps on " + wRemoteSources},
	{Name: "wire.rpc_p50_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "latency_p50_ms on " + wRemoteSources},
	{Name: "wire.inflight_max", Unit: "count", Better: "higher", Layer: "wire", Moves: "latency_p50_ms on " + wRemoteSources + " (overlap hides round trips)"},
	{Name: "wire.blocked_on_rpc_ratio", Unit: "ratio", Better: "lower", Layer: "wire", Moves: "latency_p50_ms on " + wRemoteSources},

	{Name: "proc.cpu_ms_per_query", Unit: "ms", Better: "lower", Layer: "process", Moves: "throughput_qps everywhere (2 saturated cores: q/s ~ 2000 / cpu_ms)"},
	{Name: "proc.gc_cycles_per_kq", Unit: "count", Better: "lower", Layer: "process", Moves: "latency_p95_ms, throughput_qps everywhere"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "process", Moves: "nothing: the price of the traced pass itself"},
}
