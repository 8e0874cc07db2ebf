package emerald

// The benchmark suite regenerates every results figure of the paper's
// evaluation (one benchmark per table/figure, plus ablations for the
// design choices DESIGN.md calls out). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the figure's headline numbers as custom metrics
// (normalized the way the paper plots them). Case Study I matrices are
// computed once per DRAM rate and shared across the benchmarks that
// consume them.

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/gpu"
	"emerald/internal/par"
	"emerald/internal/soc"
	"emerald/internal/telemetry"
)

var benchOpt = exp.Quick()

// Case Study I result matrices, shared across benches.
var (
	matrixOnce sync.Once
	matrixReg  map[int]map[exp.MemConfig]soc.Results
	matrixHigh map[int]map[exp.MemConfig]soc.Results
	matrixErr  error
)

func matrices(b *testing.B) (reg, high map[int]map[exp.MemConfig]soc.Results) {
	b.Helper()
	matrixOnce.Do(func() {
		matrixReg, matrixErr = exp.CaseStudyIMatrix(benchOpt.RegularMbps, benchOpt, nil)
		if matrixErr != nil {
			return
		}
		matrixHigh, matrixErr = exp.CaseStudyIMatrix(benchOpt.HighMbps, benchOpt, nil)
	})
	if matrixErr != nil {
		b.Fatal(matrixErr)
	}
	return matrixReg, matrixHigh
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	p := 1.0
	for _, v := range vals {
		p *= v
	}
	if p <= 0 {
		return 0
	}
	return math.Pow(p, 1/float64(len(vals)))
}

// BenchmarkFig09RegularLoad regenerates Figure 9: GPU frame execution
// time under regular load, normalized to the FR-FCFS baseline. Paper
// shape: DASH +19-20%, HMC ~2x.
func BenchmarkFig09RegularLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg, _ := matrices(b)
		var dash, hmc []float64
		for m := range reg {
			bas := reg[m][exp.BAS].MeanGPUCycles
			if bas == 0 {
				continue
			}
			dash = append(dash, reg[m][exp.DCB].MeanGPUCycles/bas, reg[m][exp.DTB].MeanGPUCycles/bas)
			hmc = append(hmc, reg[m][exp.HMC].MeanGPUCycles/bas)
		}
		b.ReportMetric(geomean(dash), "dash_vs_bas")
		b.ReportMetric(geomean(hmc), "hmc_vs_bas")
	}
}

// BenchmarkFig10HMCTimeline regenerates Figure 10: M3 under HMC,
// per-source DRAM bandwidth over time. Reports the CPU burst/idle ratio
// (CPU bandwidth outside GPU render vs during).
func BenchmarkFig10HMCTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := exp.Fig10(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		cpu := tl.Series("cpu")
		gpuS := tl.Series("gpu")
		var cpuQuiet, cpuBusy, nQuiet, nBusy float64
		for k := range cpu {
			if gpuS[k] > 0.2 {
				cpuBusy += cpu[k]
				nBusy++
			} else {
				cpuQuiet += cpu[k]
				nQuiet++
			}
		}
		if nBusy > 0 && nQuiet > 0 && cpuBusy > 0 {
			b.ReportMetric((cpuQuiet/nQuiet)/(cpuBusy/nBusy), "cpu_burst_ratio")
		}
		b.ReportMetric(float64(tl.TotalBytes("display"))/1024, "display_KB")
	}
}

// BenchmarkFig11RowLocality regenerates Figure 11: HMC row-buffer hit
// rate and bytes/activation vs BAS. Paper shape: both below 1.
func BenchmarkFig11RowLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg, _ := matrices(b)
		var hit, bpa []float64
		for m := range reg {
			bas, hmc := reg[m][exp.BAS], reg[m][exp.HMC]
			if bas.RowHitRate > 0 {
				hit = append(hit, hmc.RowHitRate/bas.RowHitRate)
			}
			if bas.BytesPerAct > 0 {
				bpa = append(bpa, hmc.BytesPerAct/bas.BytesPerAct)
			}
		}
		b.ReportMetric(geomean(hit), "hmc_rowhit_vs_bas")
		b.ReportMetric(geomean(bpa), "hmc_bytes_per_act_vs_bas")
	}
}

// BenchmarkFig12HighLoad regenerates Figure 12: total frame time and GPU
// render time under the low-bandwidth scenario, vs BAS. Paper shape:
// HMC ~+45% frame time; DASH degrades larger models.
func BenchmarkFig12HighLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, high := matrices(b)
		var hmcFrame, dashGPU []float64
		for m := range high {
			bas := high[m][exp.BAS]
			if bas.MeanFrameCycles > 0 {
				hmcFrame = append(hmcFrame, high[m][exp.HMC].MeanFrameCycles/bas.MeanFrameCycles)
			}
			if bas.MeanGPUCycles > 0 {
				dashGPU = append(dashGPU, high[m][exp.DTB].MeanGPUCycles/bas.MeanGPUCycles)
			}
		}
		b.ReportMetric(geomean(hmcFrame), "hmc_frame_vs_bas")
		b.ReportMetric(geomean(dashGPU), "dtb_gpu_vs_bas")
	}
}

// BenchmarkFig13DisplayService regenerates Figure 13: display requests
// serviced relative to BAS under high load. Paper shape: DASH starves
// the display on the big models; HMC can exceed 1 on small ones.
func BenchmarkFig13DisplayService(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, high := matrices(b)
		var dtb, hmc []float64
		for m := range high {
			bas := float64(high[m][exp.BAS].DisplayServed)
			if bas == 0 {
				continue
			}
			dtb = append(dtb, float64(high[m][exp.DTB].DisplayServed)/bas)
			hmc = append(hmc, float64(high[m][exp.HMC].DisplayServed)/bas)
		}
		b.ReportMetric(geomean(dtb), "dtb_display_vs_bas")
		b.ReportMetric(geomean(hmc), "hmc_display_vs_bas")
	}
}

// BenchmarkFig14Timelines regenerates Figure 14: M1 under BAS vs DASH-
// DTB at high load. Reports the DTB/BAS ratio of display bytes moved
// (the starvation the paper highlights in callout 6).
func BenchmarkFig14Timelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bas, dtb, err := exp.Fig14(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		basDisp := float64(bas.TotalBytes("display"))
		if basDisp > 0 {
			b.ReportMetric(float64(dtb.TotalBytes("display"))/basDisp, "dtb_display_bytes_vs_bas")
		}
		b.ReportMetric(float64(dtb.TotalBytes("cpu"))/float64(max64(bas.TotalBytes("cpu"), 1)), "dtb_cpu_bytes_vs_bas")
	}
}

// BenchmarkFig17WTSweep regenerates Figure 17: frame time vs WT size per
// workload. Reports the spread (max/min over WT) averaged over
// workloads — the paper sees 25% (W6) to 88% (W5).
func BenchmarkFig17WTSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := wtSweeps(b)
		_ = exp.Fig17Table(allWorkloads, sweeps, benchOpt.MaxWT) // the table is the artifact
		var spreads []float64
		for _, w := range []int{geom.W1Sibenik, geom.W3Cube} {
			lo, hi := sweeps[w][0], sweeps[w][0]
			for _, t := range sweeps[w] {
				if t < lo {
					lo = t
				}
				if t > hi {
					hi = t
				}
			}
			spreads = append(spreads, float64(hi)/float64(lo))
		}
		b.ReportMetric(geomean(spreads), "wt_time_spread")
	}
}

// allWorkloads lists Table 8's workloads.
var allWorkloads = []int{geom.W1Sibenik, geom.W2Spot, geom.W3Cube, geom.W4Suzanne, geom.W5SuzanneT, geom.W6Teapot}

// wtSweeps runs every workload's WT sweep (Figure 17's data, and the
// first pass of Figure 19).
func wtSweeps(b *testing.B) map[int][]uint64 {
	b.Helper()
	sweeps := make(map[int][]uint64)
	for _, w := range allWorkloads {
		times, err := exp.RunWTSweep(w, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		sweeps[w] = times
	}
	return sweeps
}

// BenchmarkFig18W1Misses regenerates Figure 18: W1 execution time and
// L1 miss counts vs WT. Reports the best (minimum) texture-miss ratio
// across WT sizes — the locality benefit larger work tiles buy
// (ratio < 1 reproduces the paper's trend).
func BenchmarkFig18W1Misses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig18(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		parse := func(s string) float64 {
			v, _ := strconv.ParseFloat(s, 64)
			return v
		}
		bestTex, bestExec := 1.0, 1.0
		for row := 0; row < tab.Rows(); row++ {
			if v := parse(tab.Cell(row, 3)); v > 0 && v < bestTex {
				bestTex = v
			}
			if v := parse(tab.Cell(row, 1)); v > 0 && v < bestExec {
				bestExec = v
			}
		}
		b.ReportMetric(bestTex, "tex_miss_best_vs_wt1")
		b.ReportMetric(bestExec, "exec_best_vs_wt1")
	}
}

// BenchmarkFig19DFSL regenerates Figure 19: MLB / MLC / SOPT / DFSL.
// Paper shape: DFSL ~+19% over MLB and ~+7.3% over SOPT on average.
func BenchmarkFig19DFSL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, raw, err := exp.Fig19(benchOpt, allWorkloads, wtSweeps(b))
		if err != nil {
			b.Fatal(err)
		}
		var vsMLB, vsSOPT []float64
		for _, per := range raw {
			if per[exp.DFSL] > 0 {
				vsMLB = append(vsMLB, per[exp.MLB]/per[exp.DFSL])
				vsSOPT = append(vsSOPT, per[exp.SOPT]/per[exp.DFSL])
			}
		}
		b.ReportMetric(geomean(vsMLB), "dfsl_speedup_vs_mlb")
		b.ReportMetric(geomean(vsSOPT), "dfsl_speedup_vs_sopt")
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// renderOnce renders one W1 frame (geometry drawn twice: the second
// pass is fully occluded, giving Hi-Z something to cull) on a
// standalone GPU with the given tweaks and returns the cycles.
func renderOnce(b *testing.B, mutate func(*gpu.Config), wt int) uint64 {
	b.Helper()
	cfg := gpu.CaseStudyIIConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.WT = wt
	sys := gpu.NewStandalone(cfg, dram.Config{
		Geometry: dram.LPDDR3Geometry(4),
		Timing:   dram.LPDDR3Timing(1600),
	}, nil)
	ctx := NewGL(sys)
	scene, err := geom.DFSLWorkload(geom.W1Sibenik)
	if err != nil {
		b.Fatal(err)
	}
	ctx.Viewport(benchOpt.CS2Width, benchOpt.CS2Height)
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		b.Fatal(err)
	}
	render := func(frame int) uint64 {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(frame, float32(benchOpt.CS2Width)/float32(benchOpt.CS2Height)))
		start := sys.Cycle()
		// Two passes: the repeat is entirely occluded (equal depth fails
		// the LESS test), so Hi-Z and early-Z have work to reject.
		for pass := 0; pass < 2; pass++ {
			if err := ctx.DrawMesh(mesh); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.RunUntilIdle(4_000_000_000); err != nil {
				b.Fatal(err)
			}
		}
		return sys.Cycle() - start
	}
	render(0) // warmup
	return render(1)
}

// BenchmarkAblationHiZ compares rendering with and without the
// Hierarchical-Z stage on the occlusion-heavy W1 hall.
func BenchmarkAblationHiZ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := renderOnce(b, nil, 1)
		off := renderOnce(b, func(c *gpu.Config) { c.HiZ = false }, 1)
		b.ReportMetric(float64(off)/float64(on), "nohiz_vs_hiz")
	}
}

// BenchmarkAblationWTGranularity compares WT=1 (max balance) against
// WT=10 (max locality) — the knob behind Case Study II.
func BenchmarkAblationWTGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		balanced := renderOnce(b, nil, 1)
		local := renderOnce(b, nil, 10)
		b.ReportMetric(float64(local)/float64(balanced), "wt10_vs_wt1")
	}
}

// BenchmarkAblationWarpSched compares greedy-then-oldest against loose
// round-robin warp scheduling.
func BenchmarkAblationWarpSched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gto := renderOnce(b, nil, 1)
		lrr := renderOnce(b, func(c *gpu.Config) { c.Core.GTO = false }, 1)
		b.ReportMetric(float64(lrr)/float64(gto), "lrr_vs_gto")
	}
}

// BenchmarkAblationTCBins varies the TC engine staging capacity
// (coalescing opportunity) between 1 and 4 bins per engine.
func BenchmarkAblationTCBins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		four := renderOnce(b, nil, 1)
		one := renderOnce(b, func(c *gpu.Config) { c.TC.BinsPerEngine = 1 }, 1)
		b.ReportMetric(float64(one)/float64(four), "tc1bin_vs_tc4bin")
	}
}

// BenchmarkAblationEarlyZ compares the early-Z fragment shader against
// the late-Z variant on the depth-complex W1 hall.
func BenchmarkAblationEarlyZ(b *testing.B) {
	run := func(late bool) uint64 {
		sys := NewStandaloneGPU(nil)
		ctx := NewGL(sys)
		scene, err := geom.DFSLWorkload(geom.W1Sibenik)
		if err != nil {
			b.Fatal(err)
		}
		ctx.Viewport(benchOpt.CS2Width, benchOpt.CS2Height)
		fs := FSTexturedEarlyZ
		if late {
			fs = FSTexturedLateZ
		}
		if err := ctx.UseProgram(VSTransform, fs); err != nil {
			b.Fatal(err)
		}
		tex, _ := ctx.UploadTexture(scene.Texture)
		ctx.BindTexture(0, tex)
		mesh, _ := ctx.UploadMesh(scene.Mesh)
		var cycles uint64
		for f := 0; f < 2; f++ {
			ctx.Clear(0xFF101020, true)
			ctx.SetMVP(scene.MVP(f, 1))
			if err := ctx.DrawMesh(mesh); err != nil {
				b.Fatal(err)
			}
			start := sys.Cycle()
			if _, err := sys.RunUntilIdle(4_000_000_000); err != nil {
				b.Fatal(err)
			}
			cycles = sys.Cycle() - start
		}
		return cycles
	}
	for i := 0; i < b.N; i++ {
		early := run(false)
		late := run(true)
		b.ReportMetric(float64(late)/float64(early), "latez_vs_earlyz")
	}
}

// BenchmarkAblationMapping compares the two Table 4 address mappings for
// a pure GPU workload (no source routing).
func BenchmarkAblationMapping(b *testing.B) {
	run := func(line bool) uint64 {
		g := dram.LPDDR3Geometry(4)
		mapping := dram.MappingPageStriped(g)
		if line {
			mapping = dram.MappingLineStriped(g)
		}
		sys := gpu.NewStandalone(gpu.CaseStudyIIConfig(), dram.Config{
			Geometry: g,
			Timing:   dram.LPDDR3Timing(1600),
			Mappings: []dram.Mapping{mapping},
		}, nil)
		ctx := NewGL(sys)
		scene, _ := geom.DFSLWorkload(geom.W3Cube)
		ctx.Viewport(benchOpt.CS2Width, benchOpt.CS2Height)
		mesh, err := ctx.LoadScene(scene)
		if err != nil {
			b.Fatal(err)
		}
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(0, 1))
		if err := ctx.DrawMesh(mesh); err != nil {
			b.Fatal(err)
		}
		cycles, err := sys.RunUntilIdle(4_000_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return cycles
	}
	for i := 0; i < b.N; i++ {
		page := run(false)
		line := run(true)
		b.ReportMetric(float64(line)/float64(page), "linestriped_vs_pagestriped")
	}
}

// BenchmarkGPGPUSAXPY times the unified cores on a compute kernel
// (cycles per element) — the gem5-gpu-style use of the same model.
func BenchmarkGPGPUSAXPY(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := NewStandaloneGPU(nil)
		const n = 8192
		const xb, yb, pb = 0x100000, 0x200000, 0x300000
		m := sys.Mem()
		for k := 0; k < n; k++ {
			m.WriteF32(xb+uint64(k)*4, float32(k))
			m.WriteF32(yb+uint64(k)*4, 1)
		}
		m.WriteU32(pb, xb)
		m.WriteU32(pb+4, yb)
		m.WriteF32(pb+8, 2)
		m.WriteU32(pb+12, n)
		cycles, err := sys.RunKernel(Kernel{
			Prog: KernelSAXPY, Blocks: 32, ThreadsPerBlock: 256, ParamBase: pb,
		}, 500_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cycles)/n, "cycles_per_elem")
	}
}

// BenchmarkFrameW3 renders frames of the W3 cube workload on the
// standalone Table 7 GPU — the reference frame-rendering benchmark used
// to guard the hot tick path (the emtrace nil-tracer fast path must keep
// this within 2% of the untraced seed).
func BenchmarkFrameW3(b *testing.B) {
	benchmarkFrame(b, geom.W3Cube)
}

// TestFrameAllocationTripwire holds a W3 frame's allocation: the SIMT
// issue path recycles its warps, memory ops and transactions, and a
// frame allocated 6.7 MB before that and 2.2 MB after. An allocation
// creeping back into the per-cycle path shows here first.
func TestFrameAllocationTripwire(t *testing.T) {
	if testing.Short() {
		t.Skip("renders benchmark frames")
	}
	res := testing.Benchmark(BenchmarkFrameW3)
	if res.N == 0 {
		t.Fatal("BenchmarkFrameW3 did not run")
	}
	mb := float64(res.AllocedBytesPerOp()) / 1e6
	t.Logf("BenchmarkFrameW3: %.2f MB/op (gate 3.5)", mb)
	if mb >= 3.5 {
		t.Error("a W3 frame allocates 3.5 MB or more")
	}
}

// BenchmarkFrameW1 is the same guard over the geometry-heavy W1 hall.
func BenchmarkFrameW1(b *testing.B) {
	benchmarkFrame(b, geom.W1Sibenik)
}

// BenchmarkFrameW3Telemetry is BenchmarkFrameW3 with a live telemetry
// probe attached — the overhead guard for the observability plane
// (scripts/check.sh pairs it against BenchmarkFrameW3 and demands the
// sampling cost stays within the 2% budget). The probe publishes one
// snapshot per 1024-cycle stride poll; results are bit-identical to the
// unprobed run (TestTelemetryDigestInvariance), only wall clock can
// change.
func BenchmarkFrameW3Telemetry(b *testing.B) {
	benchmarkFrameProbe(b, geom.W3Cube, telemetry.NewProbe())
}

// BenchmarkFrameW3Par4 is BenchmarkFrameW3 on the parallel tick engine
// with 4 workers — the speedup guard for the -workers flag
// (scripts/check.sh demands >= 1.5x over the sequential run). Results
// are bit-identical to BenchmarkFrameW3; only wall clock changes.
func BenchmarkFrameW3Par4(b *testing.B) {
	benchmarkFrameWorkers(b, geom.W3Cube, 4)
}

func benchmarkFrame(b *testing.B, workload int) {
	b.Helper()
	benchmarkFrameOpts(b, workload, 1, nil)
}

func benchmarkFrameWorkers(b *testing.B, workload, workers int) {
	b.Helper()
	benchmarkFrameOpts(b, workload, workers, nil)
}

func benchmarkFrameProbe(b *testing.B, workload int, probe *telemetry.Probe) {
	b.Helper()
	benchmarkFrameOpts(b, workload, 1, probe)
}

func benchmarkFrameOpts(b *testing.B, workload, workers int, probe *telemetry.Probe) {
	b.Helper()
	sys := NewStandaloneGPU(nil)
	if workers > 1 {
		pool := par.NewPool(workers)
		defer pool.Close()
		sys.SetParallel(pool)
	}
	if probe != nil {
		sys.SetProbe(probe)
	}
	ctx := NewGL(sys)
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		b.Fatal(err)
	}
	ctx.Viewport(benchOpt.CS2Width, benchOpt.CS2Height)
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(i, float32(benchOpt.CS2Width)/float32(benchOpt.CS2Height)))
		if err := ctx.DrawMesh(mesh); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunUntilIdle(4_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
