package exp

import (
	"fmt"

	"emerald/internal/soc"
	"emerald/internal/stats"
)

// This file holds the pure aggregation half of the experiment plan:
// given raw per-cell results, compute the paper's figure tables. Every
// front end builds its tables through Results.Figures, so a figure
// printed from a cache-backed sweep is byte-identical to one printed by
// memstudy or dfsl.

// CS1Results indexes Case Study I cell results by [model][config].
type CS1Results = map[int]map[MemConfig]soc.Results

// ParseMemConfig parses a Table 6 configuration name (BAS, DCB, DTB,
// HMC) as produced by MemConfig.String.
func ParseMemConfig(s string) (MemConfig, error) {
	for _, c := range AllMemConfigs() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown memory config %q (want BAS|DCB|DTB|HMC)", s)
}

// AllDFSLPolicies lists Figure 19's policies.
func AllDFSLPolicies() []DFSLPolicy { return []DFSLPolicy{MLB, MLC, SOPT, DFSL} }

// ParseDFSLPolicy parses a Figure 19 policy name (MLB, MLC, SOPT,
// DFSL) as produced by DFSLPolicy.String.
func ParseDFSLPolicy(s string) (DFSLPolicy, error) {
	for _, p := range AllDFSLPolicies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown DFSL policy %q (want MLB|MLC|SOPT|DFSL)", s)
}

// Fig09Table computes Figure 9 (normalized GPU execution time under
// regular load) from a Case Study I result set. It is exported for
// bench's table-build driver.
func Fig09Table(res CS1Results) *stats.Table {
	t := stats.NewTable("Figure 9: normalized GPU execution time (regular load)",
		"model", "BAS", "DCB", "DTB", "HMC")
	for _, m := range sortedModels(res) {
		bas := res[m][BAS].MeanGPUCycles
		norm := func(c MemConfig) float64 {
			if bas == 0 {
				return 0
			}
			return res[m][c].MeanGPUCycles / bas
		}
		t.AddRow(modelName(m), norm(BAS), norm(DCB), norm(DTB), norm(HMC))
	}
	return t
}

// fig11Table computes Figure 11 (HMC row locality normalized to BAS)
// from the regular-load matrix.
func fig11Table(r *Results) *stats.Table {
	res := r.CS1(r.plan.Opt.RegularMbps)
	t := stats.NewTable("Figure 11: HMC row locality normalized to BAS",
		"model", "rowbuffer_hit_rate", "bytes_per_activation")
	for _, m := range sortedModels(res) {
		bas, hmc := res[m][BAS], res[m][HMC]
		hr, ba := 0.0, 0.0
		if bas.RowHitRate > 0 {
			hr = hmc.RowHitRate / bas.RowHitRate
		}
		if bas.BytesPerAct > 0 {
			ba = hmc.BytesPerAct / bas.BytesPerAct
		}
		t.AddRow(modelName(m), hr, ba)
	}
	return t
}

// fig12Table computes Figure 12 (normalized execution time under high
// load) from the high-load matrix.
func fig12Table(r *Results) *stats.Table {
	res := r.CS1(r.plan.Opt.HighMbps)
	t := stats.NewTable("Figure 12: normalized execution time (high load)",
		"model", "config", "total_frame_time", "gpu_render_time")
	for _, m := range sortedModels(res) {
		bas := res[m][BAS]
		for _, c := range AllMemConfigs() {
			r := res[m][c]
			tf, tg := 0.0, 0.0
			if bas.MeanFrameCycles > 0 {
				tf = r.MeanFrameCycles / bas.MeanFrameCycles
			}
			if bas.MeanGPUCycles > 0 {
				tg = r.MeanGPUCycles / bas.MeanGPUCycles
			}
			t.AddRow(modelName(m), c.String(), tf, tg)
		}
	}
	return t
}

// fig13Table computes Figure 13 (display requests serviced relative to
// BAS) from the high-load matrix.
func fig13Table(r *Results) *stats.Table {
	res := r.CS1(r.plan.Opt.HighMbps)
	t := stats.NewTable("Figure 13: display requests serviced relative to BAS",
		"model", "BAS", "DCB", "DTB", "HMC")
	for _, m := range sortedModels(res) {
		bas := float64(res[m][BAS].DisplayServed)
		norm := func(c MemConfig) float64 {
			if bas == 0 {
				return 0
			}
			return float64(res[m][c].DisplayServed) / bas
		}
		t.AddRow(modelName(m), norm(BAS), norm(DCB), norm(DTB), norm(HMC))
	}
	return t
}

// fig17Table computes Figure 17 (frame time vs WT size, normalized to
// WT=1) from the WT sweeps, one row per workload in plan order.
func fig17Table(r *Results) *stats.Table {
	headers := []string{"workload"}
	for wt := 1; wt <= r.plan.Opt.MaxWT; wt++ {
		headers = append(headers, fmt.Sprintf("WT%d", wt))
	}
	t := stats.NewTable("Figure 17: frame time vs WT size (normalized to WT=1)", headers...)
	for _, w := range r.plan.Workloads {
		times := r.cells[Cell{Kind: SweepCell, Workload: w}].Cycles
		row := []any{workloadName(w)}
		for _, c := range times {
			row = append(row, float64(c)/float64(times[0]))
		}
		t.AddRow(row...)
	}
	return t
}

// pickSOPT picks the static-optimal WT: the size with the best average
// normalized frame time across the workloads' WT sweeps (the first pass
// of Figure 19). The sum runs in plan order, so the pick is the same on
// every run.
func (r *Results) pickSOPT() int {
	sopt := 1
	best := 0.0
	for wt := 1; wt <= r.plan.Opt.MaxWT; wt++ {
		sum := 0.0
		for _, w := range r.plan.Workloads {
			times := r.cells[Cell{Kind: SweepCell, Workload: w}].Cycles
			sum += float64(times[wt-1]) / float64(times[0])
		}
		if sopt == 1 && wt == 1 || sum < best {
			best = sum
			sopt = wt
		}
	}
	return sopt
}

// fig18Table computes Figure 18 (W1 execution time and L1 misses vs
// WT, normalized to WT=1) from its WT points.
func fig18Table(r *Results) *stats.Table {
	t := stats.NewTable("Figure 18: W1 execution time and L1 misses vs WT (normalized to WT=1)",
		"WT", "exec_time", "color_misses", "texture_misses", "depth_misses")
	points := r.plan.wtPoints()
	base := r.cells[points[0]].Point
	for _, c := range points {
		vals := r.cells[c].Point
		norm := func(j int) float64 {
			if base[j] == 0 {
				return 0
			}
			return vals[j] / base[j]
		}
		t.AddRow(c.WT, norm(0), norm(1), norm(2), norm(3))
	}
	return t
}

// fig19Table computes Figure 19 (frame speedup vs MLB) from the policy
// runs, one row per workload in plan order; the title carries SOPT and
// the evaluation and run phase lengths.
func fig19Table(r *Results) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 19: frame speedup vs MLB (SOPT=WT%d, eval %d + run %d frames)",
			r.sopt, r.plan.Opt.MaxWT, r.plan.Opt.DFSLRunFrames),
		"workload", "MLB", "MLC", "SOPT", "DFSL")
	avg := r.Policies()
	for _, w := range r.plan.Workloads {
		mlb := avg[w][MLB]
		row := []any{workloadName(w)}
		for _, p := range AllDFSLPolicies() {
			v := 0.0
			if avg[w][p] > 0 {
				v = mlb / avg[w][p]
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}
