package main

// The benchmark's contract in code: workload names, the end-to-end metrics
// with their units, and every per-layer metric the traced run emits.
// BENCHMARK.json at the repository root must list exactly these
// (TestBenchmarkJSONMatchesSpec); later issues cite the names, so they are
// final.

type workloadSpec struct {
	name string
	why  string
	make func(runEnv) driver
	// minOps is the fewest measured operations a run performs even when the
	// time budget is already spent.
	minOps int
	// refRuns is how many kernel runs one reference window holds (≈1 ms
	// each): long sections get long windows, so both see the same mix of
	// interference.
	refRuns int
}

var workloads = []workloadSpec{
	{"daemon-admit", "session lifecycle on the real harpd: many small frames, O(sessions) push work, durable store on; solver only a fifth of the time", newDaemonAdmit, 50, 8},
	{"daemon-retable", "764-point table uploads to the real harpd: large-frame codec, table layer and the solver's cache-miss path", newDaemonRetable, 20, 8},
	{"churn-10k", "in-process manager at 10k sessions: coalesced epochs, incremental and sharded solving; bypasses transport and codec", newChurn10k, 20, 8},
	{"paper-eval", "the paper's ten Fig. 6 scenarios simulated under HARP: sim, explore, regress and the allocator's cache-hit path; guards decision quality", newPaperEval, 2, 24},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	name, unit string
	bound      float64 // end-to-end only
}

// endToEnd are the six numbers a user of the system would see; all lower is
// better.
var endToEnd = []metricSpec{
	{"setup_s", "s", 0.25},
	{"op_ms_p50", "ms", 0.25},
	{"cpu_ms_per_op", "ms", 0.25},
	{"alloc_kb_per_op", "KB", 0.03},
	{"rss_mb", "MB", 0.15},
	{"energy_x", "x", 0.02},
}

// perLayer lists every per-layer metric with its unit. Metrics that do not
// apply to the workload being traced are emitted as 0.
var perLayer = []metricSpec{
	{name: "proto.encode_activate_ns", unit: "ns"},
	{name: "proto.decode_activate_ns", unit: "ns"},
	{name: "proto.encode_table764_us", unit: "us"},
	{name: "proto.decode_table764_us", unit: "us"},
	{name: "proto.table764_bytes", unit: "count"},
	{name: "proto.decode_table764_allocs", unit: "count"},

	{name: "harp.dial_ack_ms_p50", unit: "ms"},
	{name: "harp.push_fanout_per_op", unit: "count"},
	{name: "harp.wire_bytes_per_op", unit: "count"},
	{name: "harp.syscalls_per_op", unit: "count"},
	{name: "harp.ctx_switches_per_op", unit: "count"},
	{name: "harp.rss_kb_per_session", unit: "KB"},
	{name: "harp.conn_read_ms", unit: "ms"},
	{name: "harp.conn_write_ms", unit: "ms"},

	{name: "core.register_ms_p50", unit: "ms"},
	{name: "core.deregister_ms_p50", unit: "ms"},
	{name: "core.upload_ms_p50", unit: "ms"},
	{name: "core.phase_ms_p50", unit: "ms"},
	{name: "core.tick_ms_p50", unit: "ms"},
	{name: "core.events_per_epoch", unit: "count"},
	{name: "core.decisions_per_epoch", unit: "count"},
	{name: "core.epoch_ms_p99", unit: "ms"},
	{name: "core.tick_over_50ms_pct", unit: "%"},
	{name: "core.snapshot_phase_ms", unit: "ms"},
	{name: "core.push_phase_ms", unit: "ms"},
	{name: "core.journal_phase_ms", unit: "ms"},
	{name: "core.degraded_epochs", unit: "count"},
	{name: "core.parked_sessions", unit: "count"},
	{name: "core.export_state_10k_ms", unit: "ms"},

	{name: "alloc.solve_ms_p50", unit: "ms"},
	{name: "alloc.solve_share", unit: "%"},
	{name: "alloc.source_cold", unit: "count"},
	{name: "alloc.source_warm", unit: "count"},
	{name: "alloc.source_cached", unit: "count"},
	{name: "alloc.source_incremental", unit: "count"},
	{name: "alloc.source_sharded", unit: "count"},
	{name: "alloc.lambda_iters_per_solve", unit: "count"},
	{name: "alloc.cold_5x764_us", unit: "us"},
	{name: "alloc.warm_5x764_us", unit: "us"},
	{name: "alloc.cachehit_ns", unit: "ns"},
	{name: "alloc.greedy_5x764_us", unit: "us"},
	{name: "alloc.cold_allocs_per_op", unit: "count"},
	{name: "alloc.fingerprint_us", unit: "us"},
	{name: "alloc.incremental_10k_ms", unit: "ms"},
	{name: "alloc.sharded_10k_ms", unit: "ms"},

	{name: "opoint.pareto_764_us", unit: "us"},
	{name: "opoint.validate_764_us", unit: "us"},
	{name: "opoint.upsert_ns", unit: "ns"},
	{name: "opoint.load_764_us", unit: "us"},
	{name: "opoint.front_len", unit: "count"},

	{name: "store.append_small_us", unit: "us"},
	{name: "store.append_table764_us", unit: "us"},
	{name: "store.snapshot_10k_ms", unit: "ms"},
	{name: "store.replay_ms_per_1k", unit: "ms"},
	{name: "store.wal_bytes_per_op", unit: "count"},

	{name: "telemetry.scrape_10k_ms", unit: "ms"},
	{name: "telemetry.scrape_10k_bytes", unit: "count"},
	{name: "telemetry.emit_ns", unit: "ns"},
	{name: "telemetry.journal_epoch_us", unit: "us"},

	{name: "sim.host_ms_per_sim_s", unit: "ms"},
	{name: "sim.step_us", unit: "us"},
	{name: "monitor.sample_us", unit: "us"},
	{name: "explore.steps_per_pass", unit: "count"},
	{name: "explore.stable_after_sim_s", unit: "s"},
	{name: "regress.fit_us", unit: "us"},
	{name: "harpsim.makespan_x", unit: "x"},

	{name: "cluster.tick_64_ms", unit: "ms"},
	{name: "cluster.rehome_ticks", unit: "count"},

	{name: "runtime.mallocs_per_op", unit: "count"},
	{name: "runtime.gc_per_1k_ops", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},

	{name: "bench.ref_ms_p50", unit: "ms"},
	{name: "bench.ref_slowdown_p90", unit: "x"},
	{name: "bench.steal_pct", unit: "%"},
	{name: "bench.op_ms_p99", unit: "ms"},
	{name: "bench.op_ms_p50_raw", unit: "ms"},
	{name: "bench.op_ms_p90_raw", unit: "ms"},
	{name: "bench.build_s", unit: "s"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}
