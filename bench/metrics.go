package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names, directions and bounds; the smoke
// test holds the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user of the simulator or the daemon sees.
// Every workload reports every one of them, each in its workload's terms
// (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cells_per_s", "cells/s"},
}

// perLayer are the traced run's numbers, named after the module that
// spends the time or does the work. A workload that bypasses a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"trace.record_ms", "ms"},
	{"trace.record_ns_per_instr", "ns/instr"},
	{"trace.recorded_mb", "MB"},
	{"uarch.detailed_ms", "ms"},
	{"uarch.detailed_ns_per_instr", "ns/instr"},
	{"uarch.host_ns_per_sim_cycle", "ns/cycle"},
	{"uarch.ff_ms", "ms"},
	{"uarch.ff_ns_per_instr", "ns/instr"},
	{"uarch.sampled_ms", "ms"},
	{"uarch.sim_cycles", "count"},
	{"uarch.measured_frac", "ratio"},
	{"mem.hierarchy_us", "us"},
	{"mem.dram_accesses", "count"},
	{"mem.l2_misses", "count"},
	{"warm.bind_us", "us"},
	{"warm.built_minstr", "Minstr"},
	{"warm.skipped_minstr", "Minstr"},
	{"warm.hit_ratio", "ratio"},
	{"power.estimate_us", "us"},
	{"power.block_powers_us", "us"},
	{"thermal.solve_ms_p50", "ms"},
	{"thermal.solve_ms_total", "ms"},
	{"multicore.run_ms", "ms"},
	{"multicore.ns_per_instr", "ns/instr"},
	{"multicore.sim_cycles", "count"},
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.cell_ms_max", "ms"},
	{"experiments.pool_util", "ratio"},
	{"experiments.sample_fallbacks", "count"},
	{"resultcache.hit_us", "us"},
	{"resultcache.disk_hit_us", "us"},
	{"resultcache.encode_us", "us"},
	{"resultcache.decode_us", "us"},
	{"resultcache.bytes", "bytes"},
	{"resultcache.hits", "count"},
	{"resultcache.disk_hits", "count"},
	{"resultcache.computed", "count"},
	{"resultcache.coalesced", "count"},
	{"journal.record_us", "us"},
	{"journal.lookup_us", "us"},
	{"journal.open_ms", "ms"},
	{"jobstore.accept_us", "us"},
	{"jobstore.transition_us", "us"},
	{"jobstore.open_ms", "ms"},
	{"jobstore.records", "count"},
	{"m3dd.post_ms_p50.cold", "ms"},
	{"m3dd.post_ms_p50.hit", "ms"},
	{"m3dd.post_ms_p50.disk", "ms"},
	{"m3dd.queue_ms_p50.cold", "ms"},
	{"m3dd.queue_ms_p50.hit", "ms"},
	{"m3dd.queue_ms_p50.disk", "ms"},
	{"m3dd.run_ms_p50.cold", "ms"},
	{"m3dd.run_ms_p50.hit", "ms"},
	{"m3dd.run_ms_p50.disk", "ms"},
	{"m3dd.cells_get_ms_p50.cold", "ms"},
	{"m3dd.cells_get_ms_p50.hit", "ms"},
	{"m3dd.cells_get_ms_p50.disk", "ms"},
	{"m3dd.cold_s_p50", "s"},
	{"m3dd.cold_s_p90", "s"},
	{"m3dd.hit_ms_p50", "ms"},
	{"m3dd.hit_ms_p99", "ms"},
	{"m3dd.disk_ms_p50", "ms"},
	{"m3dd.disk_ms_p90", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unattributed_frac", "ratio"},
}
