package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// tables; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the library or an operator of the server
// sees. Every workload reports every one of them (--trace 0). A bound is
// the share of the parent's median by which the metric may worsen; each
// is at least three times the widest run-to-run spread measured on any
// workload (README.md has the table), capped at the contract's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"virt_ns_per_op", "ns", "lower", 0.03},
	{"pm_bytes_per_op", "B", "lower", 0.07},
	{"space_amp", "ratio", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.05},
}

// perLayer is one module's work, cost or waste, from the traced run
// (--trace 1). A metric that does not apply to a workload (resp.* on an
// in-process workload) reads 0 there.
var perLayer = []metricDef{
	{"pmem.cache_hit_ratio", "ratio", "higher", 0},
	{"pmem.cache_misses_per_op", "1/op", "lower", 0},
	{"pmem.xpline_reads_per_op", "1/op", "lower", 0},
	{"pmem.xpline_writes_per_op", "1/op", "lower", 0},
	{"pmem.read_bytes_per_op", "B", "lower", 0},
	{"pmem.write_bytes_per_op", "B", "lower", 0},
	{"pmem.flushes_per_op", "1/op", "lower", 0},
	{"pmem.fences_per_op", "1/op", "lower", 0},
	{"pmem.evictions_per_op", "1/op", "lower", 0},
	{"pmem.write_amp", "ratio", "lower", 0},
	{"pmem.load_hit_ns", "ns", "lower", 0},
	{"pmem.load_miss_ns", "ns", "lower", 0},
	{"pmem.store_hit_ns", "ns", "lower", 0},
	{"pmem.flush_fence_ns", "ns", "lower", 0},
	{"pmem.est_busy_share", "ratio", "lower", 0},

	{"htm.commits_per_op", "1/op", "lower", 0},
	{"htm.aborts_per_commit", "ratio", "lower", 0},
	{"htm.conflicts_per_kop", "1/kop", "lower", 0},
	{"htm.capacity_per_kop", "1/kop", "lower", 0},
	{"htm.fallbacks_per_kop", "1/kop", "lower", 0},
	{"htm.txn_1line_ns", "ns", "lower", 0},
	{"htm.txn_segscan_ns", "ns", "lower", 0},
	{"htm.txn_write1_ns", "ns", "lower", 0},
	{"htm.est_busy_share", "ratio", "lower", 0},

	{"alloc.bytes_per_record", "B", "lower", 0},
	{"alloc.free_blocks", "count", "lower", 0},
	{"alloc.alloc_free_ns", "ns", "lower", 0},

	{"core.splits_per_kop", "1/kop", "lower", 0},
	{"core.doubles", "count", "lower", 0},
	{"core.collab_stages", "count", "lower", 0},
	{"core.hot_hit_ratio", "ratio", "higher", 0},
	{"core.probe_len_p50", "count", "lower", 0},
	{"core.probe_len_p99", "count", "lower", 0},
	{"core.load_factor", "ratio", "higher", 0},
	{"core.load_inserts_per_s", "1/s", "higher", 0},
	{"core.virt_lat_p50_ns", "ns", "lower", 0},
	{"core.virt_lat_p99_ns", "ns", "lower", 0},
	{"core.phase_route_ns", "ns", "lower", 0},
	{"core.phase_probe_ns", "ns", "lower", 0},
	{"core.phase_htm_retry_ns", "ns", "lower", 0},
	{"core.phase_media_flush_ns", "ns", "lower", 0},
	{"core.phase_publish_ns", "ns", "lower", 0},
	{"core.recover_s", "s", "lower", 0},

	{"shard.imbalance", "ratio", "lower", 0},
	{"shard.splitbatch_ns_per_op", "ns", "lower", 0},

	{"spash.get_ns_p50", "ns", "lower", 0},
	{"spash.update_ns_p50", "ns", "lower", 0},
	{"spash.insert_ns_p50", "ns", "lower", 0},
	{"spash.delete_ns_p50", "ns", "lower", 0},
	{"spash.execbatch_ns_per_op", "ns", "lower", 0},

	{"resp.parse_ns_per_cmd", "ns", "lower", 0},
	{"resp.render_ns_per_reply", "ns", "lower", 0},
	{"resp.parse_allocs_per_cmd", "1/op", "lower", 0},
	{"resp.bytes_in_per_op", "B", "lower", 0},
	{"resp.bytes_out_per_op", "B", "lower", 0},

	{"server.batch_size_mean", "count", "higher", 0},
	{"server.batches_per_kop", "1/kop", "lower", 0},
	{"server.errors", "count", "lower", 0},
	{"server.residual_ns_per_op", "ns", "lower", 0},

	{"client.encode_ns_per_op", "ns", "lower", 0},
	{"client.flush_ns_per_window", "ns", "lower", 0},
	{"client.wait_ns_per_window", "ns", "lower", 0},
	{"client.parse_ns_per_op", "ns", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},

	{"host.calib_ns", "ns", "lower", 0},
	{"host.gc_cycles", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.allocs_per_op", "1/op", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// metric is one reported value, as the contract's JSON line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report maps the table to the values a run produced; a name the run did
// not set reads 0.
func report(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
