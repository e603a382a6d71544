package main

// The per-layer metrics of the traced run, each with the end-to-end
// metric it should move and the workload where it should move it.
// BENCHMARK.json lists the same names; later changes cite them.

// layerMetric describes one per-layer metric.
type layerMetric struct {
	Name, Unit, Better string
	// Moves is the end-to-end metric a change in this one should move,
	// and Where the workload it should move on.
	Moves, Where string
}

var layerMetrics = []layerMetric{
	{"httpserve.decode_us", "us", "lower", "match_p50_ms", wlFresh},
	{"httpserve.encode_us", "us", "lower", "match_p50_ms, server_cpu_ms_per_op", wlWarm},
	{"httpserve.response_bytes", "bytes", "lower", "httpserve.encode_us", wlWarm},
	{"httpserve.transport_us", "us", "lower", "match_p50_ms", wlWarm},
	{"httpserve.repo_decode_ms", "ms", "lower", "update_p50_ms", wlWarm},
	{"match.queue_wait_p99_us", "us", "lower", "match_sat_rps", wlWarm},
	{"match.overloaded", "count", "lower", "error_ratio, match_sat_rps", "all"},
	{"match.update_ms", "ms", "lower", "update_p50_ms", wlWarm},
	{"match.session_build_us", "us", "lower", "match_p50_ms", wlFresh},
	{"match.session_miss_ratio", "ratio", "lower", "match_p50_ms", wlFresh},
	{"engine.pairs_scored", "count", "lower", "server_cpu_ms_per_op", wlFresh},
	{"engine.memo_hit_ratio", "ratio", "higher", "match.session_build_us", wlFresh},
	{"engine.memo_entries", "count", "lower", "server_rss_mean_mb", wlFresh},
	{"similarity.ns_per_pair", "ns", "lower", "match_p50_ms", wlFresh},
	{"matching.search_us.exhaustive", "us", "lower", "match_p50_ms, match_sat_rps", wlWarm},
	{"matching.search_us.parallel", "us", "lower", "match_p50_ms, match_sat_rps", wlWarm},
	{"matchers.search_us.beam", "us", "lower", "match_p50_ms, match_sat_rps", wlWarm},
	{"matchers.search_us.topk", "us", "lower", "match_p50_ms, match_sat_rps", wlWarm},
	{"matchers.search_us.clustered", "us", "lower", "match_p50_ms, match_sat_rps", wlWarm},
	{"matching.search_candidates", "count", "lower", "server_cpu_ms_per_op", wlWarm},
	{"matching.yield_ratio", "ratio", "higher", "server_cpu_ms_per_op", wlWarm},
	{"matching.search_allocs", "count", "lower", "server_cpu_ms_per_op", wlWarm},
	{"matching.answers", "count", "higher", "httpserve.encode_us", wlWarm},
	{"cluster.index_build_ms", "ms", "lower", "setup_s", "all"},
	{"clustered.apply_ms", "ms", "lower", "update_p50_ms", wlWarm},
	{"xmlschema.diff_ms", "ms", "lower", "update_p50_ms", wlWarm},
	{"store.append_ms", "ms", "lower", "update_p50_ms", wlWarm},
	{"store.bytes_per_update", "bytes", "lower", "update_p50_ms", wlWarm},
	{"store.compact_ms", "ms", "lower", "update_p50_ms", wlWarm},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "server_cpu_ms_per_op", wlWarm},
	{"runtime.heap_live_mb", "MB", "lower", "server_rss_mean_mb", wlFresh},
	{"selftime.httpserve_us", "us", "lower", "match_p50_ms", "all"},
	{"selftime.match_us", "us", "lower", "match_p50_ms", "all"},
	{"selftime.search_us", "us", "lower", "match_p50_ms", wlWarm},
	{"trace.overhead_us", "us", "lower", "none: the traced run's p50 minus the untraced run's", "all"},
}

// endToEndMetrics are the metrics of the end-to-end run, in order.
var endToEndMetrics = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"match_p50_ms", "ms"},
	{"match_sat_rps", "1/s"},
	{"update_p50_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_rss_mean_mb", "MB"},
}
