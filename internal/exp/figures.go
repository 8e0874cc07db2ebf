package exp

import (
	"fmt"

	"emerald/internal/soc"
	"emerald/internal/stats"
)

// This file holds the pure aggregation half of the experiment
// harnesses: given raw per-cell results, compute the paper's figure
// tables. The sequential CLIs (cmd/memstudy, cmd/dfsl) and the sweep
// service's aggregator (cmd/sweep) share these, so a figure printed
// from a cache-backed sweep is byte-identical to one printed by the
// sequential CLIs.

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
// regular load) from a Case Study I result set.
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

// Fig11Table computes Figure 11 (HMC row locality normalized to BAS)
// from a Case Study I result set.
func Fig11Table(res CS1Results) *stats.Table {
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

// Fig12Table computes Figure 12 (normalized execution time under high
// load) from a Case Study I result set measured at the high-load DRAM
// rate.
func Fig12Table(res CS1Results) *stats.Table {
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

// Fig13Table computes Figure 13 (display requests serviced relative to
// BAS) from a Case Study I result set measured at the high-load DRAM
// rate.
func Fig13Table(res CS1Results) *stats.Table {
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

// Fig17Table computes Figure 17 (frame time vs WT size, normalized to
// WT=1) from per-workload WT sweeps. order fixes the row order (the
// workload ids, as passed on the command line or expanded by the sweep
// client); maxWT is the sweep length.
func Fig17Table(order []int, sweeps map[int][]uint64, maxWT int) *stats.Table {
	headers := []string{"workload"}
	for wt := 1; wt <= maxWT; wt++ {
		headers = append(headers, fmt.Sprintf("WT%d", wt))
	}
	t := stats.NewTable("Figure 17: frame time vs WT size (normalized to WT=1)", headers...)
	for _, w := range order {
		times, ok := sweeps[w]
		if !ok {
			continue
		}
		row := []any{workloadName(w)}
		for _, c := range times {
			row = append(row, float64(c)/float64(times[0]))
		}
		t.AddRow(row...)
	}
	return t
}

// SOPTFromSweeps picks the static-optimal WT: the size with the best
// average normalized frame time across every workload's sweep (the
// first pass of Figure 19).
func SOPTFromSweeps(sweeps map[int][]uint64, maxWT int) int {
	sopt := 1
	best := 0.0
	for wt := 1; wt <= maxWT; wt++ {
		sum := 0.0
		for _, times := range sweeps {
			sum += float64(times[wt-1]) / float64(times[0])
		}
		if sopt == 1 && wt == 1 || sum < best {
			best = sum
			sopt = wt
		}
	}
	return sopt
}

// Fig19Table computes Figure 19 (frame speedup vs MLB) from
// per-workload, per-policy average frame cycles. order fixes the row
// order; sopt, evalFrames and runFrames parameterize the title the way
// the dfsl CLI prints it.
func Fig19Table(order []int, avg map[int]map[DFSLPolicy]float64, sopt, evalFrames, runFrames int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 19: frame speedup vs MLB (SOPT=WT%d, eval %d + run %d frames)",
			sopt, evalFrames, runFrames),
		"workload", "MLB", "MLC", "SOPT", "DFSL")
	for _, w := range order {
		byPolicy, ok := avg[w]
		if !ok {
			continue
		}
		mlb := byPolicy[MLB]
		row := []any{workloadName(w)}
		for _, p := range AllDFSLPolicies() {
			v := 0.0
			if byPolicy[p] > 0 {
				v = mlb / byPolicy[p]
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}
