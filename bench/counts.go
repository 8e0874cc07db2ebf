package main

import (
	"strings"

	"emerald/internal/stats"
)

// Simulated counts are read from outside: every component registers
// its counters in the stats.Registry the benchmark hands to the system,
// and the rules below fold the per-core / per-channel names into one
// sum per catalogue metric.

// countRule adds every registry counter whose name starts with prefix
// and ends with suffix into key.
type countRule struct{ key, prefix, suffix string }

var countRules = []countRule{
	{"simt.warp_instrs", "gpu.core", ".instructions"},
	{"simt.core_cycles", "gpu.core", ".cycles"},
	{"simt.issue_idle_cycles", "gpu.core", ".issue_idle"},
	{"simt.mem_stall_cycles", "gpu.core", ".mem_stalls"},
	{"simt.divergences", "gpu.core", ".divergences"},
	{"cache.l1t_accesses", "gpu.core", ".l1t.accesses"},
	{"cache.l1t_misses", "gpu.core", ".l1t.misses"},
	{"cache.l1d_accesses", "gpu.core", ".l1d.accesses"},
	{"cache.l1d_misses", "gpu.core", ".l1d.misses"},
	{"cache.l1_other_accesses", "gpu.core", ".l1z.accesses"},
	{"cache.l1_other_accesses", "gpu.core", ".l1c.accesses"},
	{"cache.l1_other_misses", "gpu.core", ".l1z.misses"},
	{"cache.l1_other_misses", "gpu.core", ".l1c.misses"},
	{"cache.l2_accesses", "gpu.l2.accesses", ""},
	{"cache.l2_misses", "gpu.l2.misses", ""},
	{"interconnect.transferred", "", "_noc.transferred"},
	{"interconnect.stalls", "", "_noc.stalls"},
	{"dram.bytes", "dram.ch", ".bytes"},
	{"dram.activations", "dram.ch", ".activations"},
	{"dram.row_hits", "dram.ch", ".row_hits"},
	{"dram.row_misses", "dram.ch", ".row_misses"},
	{"dram.row_misses", "dram.ch", ".row_conflicts"},
	{"dram.rejected", "dram.rejected", ""},
	{"dram.served_gpu", "dram.ch", ".served_gpu"},
	{"dram.served_cpu", "dram.ch", ".served_cpu"},
	{"dram.served_display", "dram.ch", ".served_display"},
	{"raster.prims_assembled", "gpu.prims_assembled", ""},
	{"raster.prims_culled", "gpu.prims_culled", ""},
	{"raster.fragments", "gpu.fragments_shaded", ""},
	{"raster.hiz_culled_tiles", "gpu.hiz_culled_tiles", ""},
	{"gpu.draws", "gpu.draws_done", ""},
	{"gpu.vs_warps", "gpu.vs_warps", ""},
	{"gpu.fs_warps", "gpu.fs_warps", ""},
	{"gpu.tc_tiles_out", "gpu.cluster", ".tc.tc_tiles_out"},
	{"cpu.instrs", "cpu", ".instructions"},
	{"soc.frames_shown", "display.frames_shown", ""},
	{"soc.frames_dropped", "display.frames_dropped", ""},
	{"soc.display_served", "display.requests_served", ""},
}

// addRegistry folds reg's counters into c by countRules.
func (c counts) addRegistry(reg *stats.Registry) {
	reg.Each(func(name string, v int64) {
		for _, r := range countRules {
			if strings.HasPrefix(name, r.prefix) && strings.HasSuffix(name, r.suffix) &&
				len(name) >= len(r.prefix)+len(r.suffix) {
				c[r.key] += float64(v)
			}
		}
	})
}

func (c counts) clone() counts {
	d := make(counts, len(c))
	for k, v := range c {
		d[k] = v
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countMetrics reports round 0's simulated counts per op, and the
// ratios over the whole round.
func countMetrics(ms metricSet, c counts, ops int) {
	per := func(name, key string) { ms.set(name, c[key]/float64(ops), 0) }
	for _, d := range metricDefs {
		if d.kind != kindCount {
			continue
		}
		if _, ok := c[d.name]; ok && d.unit == "count" {
			per(d.name, d.name)
		}
	}
	// "cycles" is the system clock: the GPU's in standalone runs, the
	// SoC's in full-system runs.
	if c["soc"] > 0 {
		per("soc.cycles", "cycles")
		ms.set("soc.skipped_ratio", ratio(c["skipped"], c["cycles"]), 0)
	} else {
		per("gpu.cycles", "cycles")
	}
	ms.set("simt.ipc", ratio(c["simt.warp_instrs"], c["simt.core_cycles"]), 0)
	ms.set("cache.l1t_miss_ratio", ratio(c["cache.l1t_misses"], c["cache.l1t_accesses"]), 0)
	ms.set("cache.l1d_miss_ratio", ratio(c["cache.l1d_misses"], c["cache.l1d_accesses"]), 0)
	ms.set("cache.l2_miss_ratio", ratio(c["cache.l2_misses"], c["cache.l2_accesses"]), 0)
	ms.set("dram.row_hit_ratio", ratio(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_misses"]), 0)
}

// estimateShares attributes one traced round's wall time to layers from
// outside: a layer's simulated count times the unit cost its isolated
// driver measured, over the round's wall time. What the products do not
// cover (phase barriers, wake checks, front-end glue) is the
// unattributed share, so the seven numbers sum to 1. Pricing every event
// at one driver's cost is crude: where the products overshoot, the
// unattributed share goes negative by the estimate's error.
func estimateShares(ms metricSet, c counts, wallS float64) {
	ns := func(name string) float64 { return ms[name].Value }
	wallNS := wallS * 1e9
	// Per-cycle components tick only on cycles the engine did not skip.
	ticked := c["cycles"] - c["skipped"]

	l1Acc := c["cache.l1t_accesses"] + c["cache.l1d_accesses"] + c["cache.l1_other_accesses"]
	l1Miss := c["cache.l1t_misses"] + c["cache.l1d_misses"] + c["cache.l1_other_misses"]
	acc, miss := l1Acc+c["cache.l2_accesses"], l1Miss+c["cache.l2_misses"]
	prims := c["raster.prims_assembled"]

	busy := dramBusyShare(c, ticked)

	share := map[string]float64{
		// A busy core's tick costs between the ALU-bound and the
		// memory-bound driver figure; the mean prices the mix. Both
		// drivers run a full core, so a near-empty one is overpriced.
		"simt.est_share": c["simt.core_cycles"] * (ns("simt.tick_ns_alu") + ns("simt.tick_ns_mem")) / 2,
		// The L1s tick inside Core.Tick; the L2 ticks once a cycle.
		"cache.est_share": (acc-miss)*ns("cache.access_hit_ns") + miss*ns("cache.access_miss_ns") +
			ticked*ns("cache.tick_ns"),
		"dram.est_share":         ticked * (busy*ns("dram.tick_ns_stream") + (1-busy)*ns("dram.tick_ns_idle")),
		"interconnect.est_share": ticked * ns("interconnect.tick_ns"),
		"raster.est_share": prims*(ns("raster.clip_ns_per_prim")+ns("raster.setup_ns_per_prim")) +
			c["raster.fragments"]*ns("raster.fine_ns_per_frag"),
		"cpu.est_share": c["cpu.instrs"] * ns("cpu.tick_ns"),
	}
	rest := 1.0
	for name, v := range share {
		s := ratio(v, wallNS)
		ms.set(name, s, 0)
		rest -= s
	}
	ms.set("gpu.unattributed_share", rest, 0)
}

// dramBusyShare estimates the fraction of ticked cycles the DRAM
// controller had a request to serve: served requests times a burst's
// worth of cycles, capped at 1.
func dramBusyShare(c counts, ticked float64) float64 {
	const cyclesPerRequest = 8 // one 128-byte line over a 16-byte-per-cycle channel
	served := c["dram.served_gpu"] + c["dram.served_cpu"] + c["dram.served_display"]
	if b := ratio(served*cyclesPerRequest, ticked); b < 1 {
		return b
	}
	return 1
}
