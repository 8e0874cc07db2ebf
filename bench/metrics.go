package main

// The metric catalogue. BENCHMARK.json lists the same names (a unit
// test fails when the two drift apart): gated metrics under
// "end_to_end", everything else under "per_layer".

// scope says how a metric is reported and compared.
type scope int

const (
	// gated: an end-to-end metric every workload reports; listed in
	// BENCHMARK.json's end_to_end with its bound.
	gated scope = iota
	// partial: an end-to-end metric the driver does not gate: one only
	// some workloads can report (simulated-speed figures need a
	// simulation, jobs_per_s a job service, the tail needs >= 20 ops;
	// the contract wants every end_to_end metric from every workload), or
	// one that does not repeat within its bound on a shared host (the
	// wall-clock timings). These sit in per_layer in BENCHMARK.json;
	// `bench compare` still gates them by bound.
	partial
	// layer: a single layer's count, driver cost, span or paired arm.
	layer
)

// How a per-layer number is obtained (the C/D/S/P letters of README.md).
const (
	kindCount  = "C" // exact simulated count per op, traced run
	kindDriver = "D" // host time from an isolated seeded driver
	kindSpan   = "S" // span around the benchmark's own call
	kindPaired = "P" // paired same-process arm, alternating order
	kindEst    = "E" // derived from counts, driver costs and wall time
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	scope  scope
	// bound is the relative worsening that counts as a regression;
	// absBound replaces it for metrics whose good value is 0.
	bound    float64
	absBound float64
	kind     string // per-layer only
	exact    bool   // simulated count: two runs of one commit must agree exactly
}

var metricDefs = []metricDef{
	// End to end, every workload. The three timings are process CPU time
	// at reference speed (ref.go), not wall clock.
	{name: "setup_s", unit: "s", better: "lower", scope: gated, bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", scope: gated, bound: 0.25},
	{name: "op_cpu_ms", unit: "ms", better: "lower", scope: gated, bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", scope: gated, bound: 0.10},
	{name: "rss_mb", unit: "MB", better: "lower", scope: gated, bound: 0.25},

	// End to end, every workload reports them, but they do not repeat
	// within their bound on a shared 2-core host: wall clock holds
	// whatever the host did meanwhile (the driver's check saw wall_s and
	// op_ms_p50 spread 33-49% between runs of one commit), and the
	// resident set's high-water mark swings with GC timing where its
	// median (rss_mb) does not.
	{name: "setup_wall_s", unit: "s", better: "lower", scope: partial, bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", scope: partial, bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", scope: partial, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", scope: partial, bound: 0.25},

	// End to end, some workloads.
	{name: "op_ms_tail", unit: "ms", better: "lower", scope: partial, bound: 0.25},
	{name: "sim_kcycles_per_s", unit: "kcycles/s", better: "higher", scope: partial, bound: 0.10},
	{name: "warp_kinstr_per_s", unit: "kinstr/s", better: "higher", scope: partial, bound: 0.10},
	{name: "jobs_per_s", unit: "1/s", better: "higher", scope: partial, bound: 0.10},
	{name: "est_err_pct", unit: "%", better: "lower", scope: partial, absBound: 0.5, exact: true},
	{name: "fail_ratio", unit: "ratio", better: "lower", scope: partial, absBound: 0, exact: true},

	// simt
	{name: "simt.warp_instrs", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "simt.core_cycles", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "simt.issue_idle_cycles", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "simt.mem_stall_cycles", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "simt.divergences", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "simt.ipc", unit: "ratio", better: "higher", scope: layer, kind: kindCount, exact: true},
	{name: "simt.tick_ns_alu", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "simt.tick_ns_mem", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "simt.func_instr_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// shader
	{name: "shader.alu_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "shader.assemble_us", unit: "us", better: "lower", scope: layer, kind: kindDriver},

	// cache
	{name: "cache.l1t_accesses", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cache.l1t_miss_ratio", unit: "ratio", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cache.l1d_accesses", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cache.l1d_miss_ratio", unit: "ratio", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cache.l2_accesses", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cache.l2_miss_ratio", unit: "ratio", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cache.access_hit_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "cache.access_miss_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "cache.tick_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// interconnect
	{name: "interconnect.transferred", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "interconnect.stalls", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "interconnect.tick_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// dram
	{name: "dram.bytes", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "dram.activations", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "dram.row_hit_ratio", unit: "ratio", better: "higher", scope: layer, kind: kindCount, exact: true},
	{name: "dram.rejected", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "dram.served_gpu", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "dram.served_cpu", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "dram.served_display", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "dram.tick_ns_stream", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "dram.tick_ns_random", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "dram.tick_ns_idle", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// sched
	{name: "sched.dash_tick_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "sched.dash_pick_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// raster
	{name: "raster.prims_assembled", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "raster.prims_culled", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "raster.fragments", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "raster.hiz_culled_tiles", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "raster.clip_ns_per_prim", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "raster.setup_ns_per_prim", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "raster.fine_ns_per_frag", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// gpu
	{name: "gpu.cycles", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "gpu.draws", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "gpu.vs_warps", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "gpu.fs_warps", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "gpu.tc_tiles_out", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "gpu.submit_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},
	{name: "gpu.run_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "gpu.kernel_run_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "gpu.func_draw_ms", unit: "ms", better: "lower", scope: layer, kind: kindDriver},
	{name: "gpu.wheel_speedup", unit: "ratio", better: "higher", scope: layer, kind: kindPaired},

	// gl
	{name: "gl.upload_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "gl.clear_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},

	// mem
	{name: "mem.read_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "mem.write_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "mem.view_read_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// cpu
	{name: "cpu.instrs", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "cpu.tick_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},

	// soc
	{name: "soc.cycles", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "soc.skipped_ratio", unit: "ratio", better: "higher", scope: layer, kind: kindCount, exact: true},
	{name: "soc.frames_shown", unit: "count", better: "higher", scope: layer, kind: kindCount, exact: true},
	{name: "soc.frames_dropped", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "soc.display_served", unit: "count", better: "higher", scope: layer, kind: kindCount, exact: true},
	{name: "soc.new_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "soc.run_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "soc.skip_speedup", unit: "ratio", better: "higher", scope: layer, kind: kindPaired},

	// par
	{name: "par.dispatch_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "par.wheel_due_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "par.frame_speedup_w2", unit: "ratio", better: "higher", scope: layer, kind: kindPaired},
	{name: "par.hang", unit: "count", better: "lower", scope: layer, kind: kindPaired},

	// telemetry, emtrace, guard
	{name: "telemetry.overhead_pct", unit: "%", better: "lower", scope: layer, kind: kindPaired},
	{name: "emtrace.overhead_pct", unit: "%", better: "lower", scope: layer, kind: kindPaired},
	{name: "guard.overhead_pct", unit: "%", better: "lower", scope: layer, kind: kindPaired},

	// sample
	{name: "sample.record_trace_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sample.pass_ms_per_frame", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sample.select_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sample.region_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sample.reconstruct_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},
	{name: "sample.regions", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},

	// trace
	{name: "trace.ckpt_save_ms", unit: "ms", better: "lower", scope: layer, kind: kindDriver},
	{name: "trace.ckpt_load_ms", unit: "ms", better: "lower", scope: layer, kind: kindDriver},
	{name: "trace.replay_ms_per_frame", unit: "ms", better: "lower", scope: layer, kind: kindDriver},
	{name: "trace.ckpt_bytes", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},

	// sweep
	{name: "sweep.spec_key_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "sweep.store_put_us", unit: "us", better: "lower", scope: layer, kind: kindDriver},
	{name: "sweep.store_get_us", unit: "us", better: "lower", scope: layer, kind: kindDriver},
	{name: "sweep.journal_accept_us", unit: "us", better: "lower", scope: layer, kind: kindDriver},
	{name: "sweep.submit_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},
	{name: "sweep.queue_wait_ms_p50", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sweep.exec_ms_p50", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sweep.result_fetch_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},
	{name: "sweep.warm_pass_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "sweep.cache_hit_ratio", unit: "ratio", better: "higher", scope: layer, kind: kindCount, exact: true},
	{name: "sweep.retries", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},
	{name: "sweep.jobs_failed", unit: "count", better: "lower", scope: layer, kind: kindCount, exact: true},

	// fleet
	{name: "fleet.ring_owners_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "fleet.submit_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},
	{name: "fleet.result_fetch_us", unit: "us", better: "lower", scope: layer, kind: kindSpan},
	{name: "fleet.replica_visible_ms", unit: "ms", better: "lower", scope: layer, kind: kindSpan},
	{name: "fleet.replicas_pushed", unit: "count", better: "lower", scope: layer, kind: kindCount},
	{name: "fleet.jobs_stolen", unit: "count", better: "lower", scope: layer, kind: kindCount},
	{name: "fleet.repairs", unit: "count", better: "lower", scope: layer, kind: kindCount},
	{name: "fleet.hedges", unit: "count", better: "lower", scope: layer, kind: kindCount},

	// exp, stats
	{name: "exp.table_build_us", unit: "us", better: "lower", scope: layer, kind: kindDriver},
	{name: "stats.counter_inc_ns", unit: "ns", better: "lower", scope: layer, kind: kindDriver},
	{name: "stats.dump_json_ms", unit: "ms", better: "lower", scope: layer, kind: kindDriver},

	// bench itself
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", scope: layer, kind: kindEst},
	{name: "bench.ref_ms", unit: "ms", better: "lower", scope: layer, kind: kindDriver},

	// Outside-in host-time attribution: count x driver cost / wall.
	{name: "simt.est_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
	{name: "cache.est_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
	{name: "dram.est_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
	{name: "interconnect.est_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
	{name: "raster.est_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
	{name: "cpu.est_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
	{name: "gpu.unattributed_share", unit: "ratio", better: "lower", scope: layer, kind: kindEst},
}

var metricByName = func() map[string]*metricDef {
	m := make(map[string]*metricDef, len(metricDefs))
	for i := range metricDefs {
		m[metricDefs[i].name] = &metricDefs[i]
	}
	return m
}()

// metricValue is one reported number. N is the sample count behind a
// timing (ops, spans, driver iterations, pairs); 0 for counts.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects values by catalogue name; set panics on a name the
// catalogue does not hold, so the code cannot emit an undeclared metric.
type metricSet map[string]metricValue

func (ms metricSet) set(name string, v float64, n int) {
	d, ok := metricByName[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	ms[name] = metricValue{Value: v, Unit: d.unit, N: n}
}
