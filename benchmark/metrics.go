package main

// namedUnit is one catalogue entry: a metric name and its unit.
type namedUnit struct{ name, unit string }

// endToEndMetrics is what a user of the system sees; every workload reports
// every one of them from its untraced run (BENCHMARK.json gives direction
// and bound, README.md the definition per workload).
var endToEndMetrics = []namedUnit{
	{"op_time_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics is one entry per layer call the traced run times or
// counts; the layer is the package name before the first dot. Every
// workload reports every name; a layer that does not run on a workload
// reports 0 (tt on train_host, ps on everything but train_host, the
// serving layers on the training workloads and vice versa).
var perLayerMetrics = []namedUnit{
	// Training step, decomposed into its exported constituent calls.
	{"data.batch_ms", "ms"},
	{"reorder.apply_ms", "ms"},
	{"nn.bottom_fwd_ms", "ms"},
	{"nn.bottom_bwd_ms", "ms"},
	{"nn.top_fwd_ms", "ms"},
	{"nn.top_bwd_ms", "ms"},
	{"nn.interaction_fwd_ms", "ms"},
	{"nn.interaction_bwd_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"nn.sgd_ms", "ms"},
	{"tt.lookup_ms", "ms"},
	{"tt.update_ms", "ms"},
	{"embedding.lookup_ms", "ms"},
	{"embedding.update_ms", "ms"},
	{"dlrm.step_ms", "ms"},
	{"dlrm.unattributed_share", "ratio"},
	// Eff-TT reuse counters, attached for the traced pass only.
	{"tt.dedup_ratio", "ratio"},
	{"tt.prefix_hit_rate", "ratio"},
	{"tt.prefix_cache_hit_rate", "ratio"},
	{"tt.footprint_mb", "MB"},
	// Set-up and state.
	{"core.build_s", "s"},
	{"reorder.build_s", "s"},
	{"core.compression_ratio", "ratio"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	// Parameter-server pipeline, per trained step.
	{"ps.gather_ms", "ms"},
	{"ps.train_ms", "ms"},
	{"ps.adapter_ms", "ms"},
	{"ps.apply_ms", "ms"},
	{"ps.prefetch_wait_ms", "ms"},
	{"ps.stall_ms", "ms"},
	{"ps.cache_hit_rate", "ratio"},
	{"ps.prefetched_kb", "kB"},
	{"ps.pushed_kb", "kB"},
	{"ps.cache_evictions", "count"},
	{"ps.lookahead_windows", "count"},
	{"ps.lookahead_pinned_rows", "count"},
	{"ps.retries", "count"},
	{"ps.worker_busy_share", "ratio"},
	{"ps.pipeline_overhead_share", "ratio"},
	{"data.lookahead_advance_ms", "ms"},
	{"embedding.gather_rows_ms", "ms"},
	{"embedding.scatter_add_ms", "ms"},
	// Serving request, onion replay: each layer timed around the next one in.
	{"served.loopback_p50_us", "us"},
	{"served.handler_p50_us", "us"},
	{"served.pool_score_p50_us", "us"},
	{"serve.ranker_score_p50_us", "us"},
	{"serve.batcher_build_p50_us", "us"},
	{"dlrm.forward_p50_us", "us"},
	{"tt.lookup_p50_us", "us"},
	{"embedding.lookup_p50_us", "us"},
	{"nn.forward_p50_us", "us"},
	{"served.net_self_us", "us"},
	{"served.json_self_us", "us"},
	{"served.queue_self_us", "us"},
	{"serve.rank_self_us", "us"},
	// Scraped from the elrec-serve binary's /metrics.
	{"served.queue_wait_p50_us", "us"},
	{"served.queue_wait_p99_us", "us"},
	{"served.exec_p50_us", "us"},
	{"served.exec_p99_us", "us"},
	{"served.coalesced_mean", "count"},
	{"served.shed_overload", "count"},
	{"served.shed_deadline", "count"},
	{"served.errors", "count"},
	// One POST /reload under continuing load.
	{"served.reload_ms", "ms"},
	{"served.reload_failed", "count"},
	{"served.reload_p99_us", "us"},
	// Sizes.
	{"checkpoint.model_bytes", "bytes"},
	{"bench.request_bytes", "bytes"},
	{"bench.response_bytes", "bytes"},
	// The benchmark itself.
	{"bench.trace_overhead_share", "ratio"},
	// Demoted from the end-to-end list (README.md, "Demoted metrics").
	{"diag.final_loss", "BCE"},
	{"diag.latency_p99_us", "us"},
	{"diag.throughput_2conn_per_s", "1/s"},
}

// emit writes one value per catalogue entry into res, 0 for every name the
// run did not measure, and reports a name outside the catalogue as a
// failed operation so a typo cannot silently drop a metric.
func emit(res *runResult, catalogue []namedUnit, values map[string]float64) {
	known := map[string]bool{}
	for _, m := range catalogue {
		known[m.name] = true
		res.set(m.name, values[m.name], m.unit)
	}
	for _, name := range sortedKeys(values) {
		if !known[name] {
			res.fail("metric %q is not in the catalogue", name)
		}
	}
}
