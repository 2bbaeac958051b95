package main

// def names one reported metric and its unit. The two lists below are
// the benchmark's whole output surface and must match BENCHMARK.json
// (checked by TestMetricListsMatchBenchmarkJSON).
type def struct{ name, unit string }

// endToEnd is printed by untraced runs. Host times are CPU time of the
// benchmark process, which leaves out the time a shared machine spends
// on other tenants; sim figures are simulated outcomes that repeat
// exactly for a seed.
var endToEnd = []def{
	{"setup_s", "s"},                   // host: CPU time until the stack is ready for its first event
	{"served_events_per_cpu_s", "1/s"}, // host: events that reached the device per CPU second, setup excluded
	{"peak_rss_mb", "MiB"},             // host: peak resident memory of the process
	{"alloc_kib_per_served", "KiB"},    // host: Go heap allocated per served event
	{"write_amp", "ratio"},             // sim: flash programs per host page write
	{"served_frac", "ratio"},           // sim: events that reached the device / attempted
}

// perLayer is printed by traced runs. Times are host milliseconds
// summed over a traced pass's inputs (median across traced passes);
// under parallel decode they are summed busy time across workers, not
// wall time.
var perLayer = []def{
	{"trace.run_ms", "ms"},
	{"trace.untraced_run_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"workload.next_ms", "ms"},
	{"core.tick_ms", "ms"},
	{"core.tick_n", "count"},
	{"core.create_ms", "ms"},
	{"core.create_n", "count"},
	{"core.update_ms", "ms"},
	{"core.update_n", "count"},
	{"core.read_ms", "ms"},
	{"core.read_n", "count"},
	{"core.delete_ms", "ms"},
	{"core.delete_n", "count"},
	{"core.read_p99_us", "us"},
	{"core.no_space", "count"},
	{"core.skipped", "count"},
	{"classify.train_ms", "ms"},
	{"classify.score_ms", "ms"},
	{"classify.score_n", "count"},
	{"ecc.encode_ms", "ms"},
	{"ecc.encode_n", "count"},
	{"ecc.decode_ms", "ms"},
	{"ecc.decode_n", "count"},
	{"ecc.decode_share", "ratio"},
	{"ecc.decode_clean_frac", "ratio"},
	{"ecc.corrected", "count"},
	{"ecc.uncorrectable", "count"},
	{"ecc.wall_ms", "ms"},
	{"datapath.self_ms", "ms"},
	{"device.reads", "count"},
	{"device.writes", "count"},
	{"device.read_retries", "count"},
	{"device.degraded_reads", "count"},
	{"device.max_wear_pct", "%"},
	{"ftl.programs", "count"},
	{"ftl.gc_runs", "count"},
	{"ftl.gc_moves", "count"},
	{"ftl.static_wl_moves", "count"},
	{"zns.programs", "count"},
	{"zns.gc_runs", "count"},
	{"zns.gc_moves", "count"},
	{"zns.static_wl_moves", "count"},
	{"audit.passes", "count"},
	{"audit.slices", "count"},
	{"audit.clean_frac", "ratio"},
	{"fleet.shard_replays", "count"},
	{"fleetd.create_ms", "ms"},
	{"fleetd.advance_ms", "ms"},
	{"fleetd.report_ms", "ms"},
	{"fleetd.metrics_ms", "ms"},
}
