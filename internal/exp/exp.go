// Package exp contains the experiment harnesses that regenerate every
// results figure of the paper's evaluation: Case Study I (Figures 9-14,
// memory organization & scheduling on the full SoC) and Case Study II
// (Figures 17-19, DFSL on the standalone GPU). Each harness returns a
// stats.Table shaped like the paper's plot, plus raw data for the
// benches and EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"

	"emerald/internal/dram"
	"emerald/internal/emtrace"
	"emerald/internal/geom"
	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/sched"
	"emerald/internal/soc"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// Options scales the experiments. Quick() keeps the benchmark suite in
// CI territory; Paper() approaches the paper's parameters (long runs).
type Options struct {
	Width, Height int
	Frames        int // measured app frames (Case Study I)
	WarmupFrames  int
	DisplayPeriod uint64
	AppPeriod     uint64

	// DRAM data rates (Mb/s/pin). The paper uses 1333 regular / 133
	// high-load at full workload scale; with the scaled-down frames the
	// regular rate is scaled too, keeping demand/capacity ratios in the
	// paper's regime (see EXPERIMENTS.md).
	RegularMbps, HighMbps int

	// Case Study II.
	CS2Width, CS2Height int
	MaxWT               int
	DFSLRunFrames       int // run-phase length (paper: 100)

	BudgetCycles uint64

	// Trace, when non-nil, is attached to every system the harness
	// builds (GPU/SIMT/cache/DRAM/SoC event tracing).
	Trace *emtrace.Tracer

	// Stats, when non-nil, collects counters from every Case Study I
	// system the harness builds (unless a run supplies its own registry,
	// as TimelineRun does).
	Stats *stats.Registry

	// Pool, when non-nil with more than one worker, arms the
	// deterministic parallel tick engine on every system the harness
	// builds (see internal/par and the -workers flag on the cmd tools).
	// Results are bit-identical regardless of worker count.
	Pool *par.Pool

	// Ctx, when non-nil, cancels in-flight simulations: the run loops
	// poll it every ~1k simulated cycles, so a timeout or cancel stops
	// the tick loop mid-frame (used by the sweep service's per-job
	// timeouts). Nil means run to completion or budget.
	Ctx context.Context

	// WatchdogCycles, when non-zero, arms the forward-progress watchdog
	// on every system the harness builds: a run with no instruction
	// retired, no memory byte moved and no frame progressed for this
	// many cycles aborts with a guard.NoProgressError carrying a
	// diagnostic bundle instead of burning the cycle budget.
	WatchdogCycles uint64

	// Guard, when true, attaches a guard.Checker to every system the
	// harness builds, running the microarchitectural invariant probes
	// (MSHR accounting, SIMT stack shape, DRAM bank legality, NoC
	// credits) each cycle. Also enabled by EMERALD_GUARD=1 in the
	// environment, the hook CI uses to run the test suite checked.
	Guard bool

	// EveryCycle selects the reference mode (the -every-cycle flag): no
	// clock jumps and no parked shards, so every CPU core, display, GPU
	// cluster and DRAM channel is ticked on every cycle. Results are
	// bit-identical either way; the mode exists as the oracle the
	// digest gates compare the default against, and for debugging.
	EveryCycle bool

	// Probe, when non-nil, is attached to every system the harness
	// builds: the run loops publish live progress snapshots to it at
	// their 1024-cycle stride polls and serve its on-demand diagnostic
	// requests (the sweep service's per-job progress and /diag, the
	// CLIs' -progress tickers). Telemetry is read-only — results are
	// bit-identical with or without a probe.
	Probe *telemetry.Probe
}

// Quick returns bench-friendly scaling.
func Quick() Options {
	return Options{
		Width: 128, Height: 96,
		Frames: 2, WarmupFrames: 1,
		DisplayPeriod: 140_000, AppPeriod: 280_000,
		RegularMbps: 1333, HighMbps: 266,
		CS2Width: 160, CS2Height: 120,
		MaxWT:         10,
		DFSLRunFrames: 60,
		BudgetCycles:  200_000_000,
	}
}

// Smoke returns the smallest sensible scaling — one measured frame per
// cell at a quarter of Quick's resolution — for service smoke tests and
// CI gates where wall time matters more than fidelity.
func Smoke() Options {
	return Options{
		Width: 64, Height: 48,
		Frames: 1, WarmupFrames: 1,
		DisplayPeriod: 70_000, AppPeriod: 140_000,
		RegularMbps: 1333, HighMbps: 266,
		CS2Width: 96, CS2Height: 72,
		MaxWT:         4,
		DFSLRunFrames: 8,
		BudgetCycles:  100_000_000,
	}
}

// Paper returns paper-scale parameters (slow; for cmd tools).
func Paper() Options {
	return Options{
		Width: 512, Height: 384,
		Frames: 4, WarmupFrames: 1,
		DisplayPeriod: 400_000, AppPeriod: 800_000,
		RegularMbps: 1333, HighMbps: 133,
		CS2Width: 512, CS2Height: 384,
		MaxWT:         10,
		DFSLRunFrames: 100,
		BudgetCycles:  4_000_000_000,
	}
}

// ByScale maps a scale name to its Options preset. It is the one
// parser behind the CLIs' -scale flags and the sweep service's
// Spec.Scale field, so every entry point accepts the same names.
func ByScale(name string) (Options, error) {
	switch name {
	case "smoke":
		return Smoke(), nil
	case "quick":
		return Quick(), nil
	case "paper":
		return Paper(), nil
	}
	return Options{}, fmt.Errorf("exp: unknown scale %q (want smoke|quick|paper)", name)
}

// MemConfig identifies a Case Study I memory configuration (Table 6).
type MemConfig int

// Case Study I configurations.
const (
	BAS MemConfig = iota // baseline FR-FCFS
	DCB                  // DASH, CPU-bandwidth clustering
	DTB                  // DASH, system-bandwidth clustering
	HMC                  // heterogeneous memory controller
)

func (c MemConfig) String() string {
	return [...]string{"BAS", "DCB", "DTB", "HMC"}[c]
}

// AllMemConfigs lists Table 6's configurations.
func AllMemConfigs() []MemConfig { return []MemConfig{BAS, DCB, DTB, HMC} }

// buildSoC assembles one Case Study I system.
func buildSoC(model int, cfg MemConfig, dataRateMbps int, opt Options, reg *stats.Registry) (*soc.SoC, error) {
	if reg == nil {
		reg = opt.Stats
	}
	scene, err := geom.SoCModel(model)
	if err != nil {
		return nil, err
	}
	sc := soc.DefaultConfig(scene)
	sc.Width, sc.Height = opt.Width, opt.Height
	// Scale the GPU cache hierarchy with the scaled assets (paper-scale
	// textures/framebuffers are ~10x larger), keeping the DRAM-traffic
	// regime of Table 5; raise LSU width so the GPU expresses its
	// memory-level parallelism against the slower scaled DRAM.
	sc.GPU.Core.L1D.SizeBytes = 8 * 1024
	sc.GPU.Core.L1T.SizeBytes = 16 * 1024
	sc.GPU.Core.L1Z.SizeBytes = 16 * 1024
	sc.GPU.Core.L1C.SizeBytes = 8 * 1024
	sc.GPU.Core.LSUWidth = 2
	sc.GPU.L2.SizeBytes = 64 * 1024
	sc.Frames = opt.Frames
	sc.WarmupFrames = opt.WarmupFrames
	sc.DisplayPeriod = opt.DisplayPeriod
	sc.AppPeriod = opt.AppPeriod

	g := dram.LPDDR3Geometry(2)
	timing := dram.LPDDR3Timing(dataRateMbps)
	switch cfg {
	case BAS:
		sc.DRAM = sched.BaselineDRAM("dram", g, timing)
	case DCB, DTB:
		dashCfg := sched.DefaultDASHConfig(sc.NumCPUs, cfg == DTB)
		// Scale the TCM quantum to the scaled frame period (Table 3's
		// 1M cycles assumes real-time frames).
		dashCfg.QuantumLength = opt.AppPeriod
		dcfg, dash := sched.DASHDRAM("dram", g, timing, dashCfg)
		sc.DRAM, sc.DASH = dcfg, dash
	case HMC:
		sc.DRAM = sched.HMCDRAM("dram", g, timing)
	}
	s, err := soc.New(sc, reg)
	if err != nil {
		return nil, err
	}
	arm(s, opt)
	return s, nil
}

// RunCaseStudyI runs one (model, config, load) cell and returns the
// results summary.
func RunCaseStudyI(model int, cfg MemConfig, dataRateMbps int, opt Options) (soc.Results, error) {
	s, err := buildSoC(model, cfg, dataRateMbps, opt, nil)
	if err != nil {
		return soc.Results{}, err
	}
	if err := s.RunCtx(opt.Ctx, opt.BudgetCycles); err != nil {
		return soc.Results{}, fmt.Errorf("%s/%s: %w", cfg, s.Cfg.Scene.Name, err)
	}
	return s.Results(cfg.String()), nil
}

// CaseStudyIMatrix runs every model x config cell at the given DRAM data
// rate and returns results indexed [model][config].
func CaseStudyIMatrix(dataRateMbps int, opt Options, models []int) (map[int]map[MemConfig]soc.Results, error) {
	if len(models) == 0 {
		models = []int{geom.M1Chair, geom.M2Cube, geom.M3Mask, geom.M4Triangles}
	}
	out := make(map[int]map[MemConfig]soc.Results)
	for _, m := range models {
		out[m] = make(map[MemConfig]soc.Results)
		for _, cfg := range AllMemConfigs() {
			r, err := RunCaseStudyI(m, cfg, dataRateMbps, opt)
			if err != nil {
				return nil, err
			}
			out[m][cfg] = r
		}
	}
	return out, nil
}

// modelNames maps model ids to display names.
func modelName(m int) string {
	s, err := geom.SoCModel(m)
	if err != nil {
		return fmt.Sprintf("M%d", m)
	}
	return s.Name
}

// TimelineRun runs one cell with a bandwidth timeline attached and
// returns the timeline (Figures 10 and 14).
func TimelineRun(model int, cfg MemConfig, dataRateMbps int, opt Options, bucket uint64) (*stats.Timeline, error) {
	reg := opt.Stats
	if reg == nil {
		reg = stats.NewRegistry()
	}
	s, err := buildSoC(model, cfg, dataRateMbps, opt, reg)
	if err != nil {
		return nil, err
	}
	tl := stats.NewTimeline(bucket)
	// Pin the column order up front: under the parallel engine the DRAM
	// channel shards record concurrently, so first-seen source order
	// would otherwise depend on thread interleaving.
	tl.Register(mem.ClientCPU.String(), mem.ClientGPU.String(),
		mem.ClientDisplay.String(), mem.ClientDMA.String())
	s.DRAM.Timeline = tl
	if err := s.RunCtx(opt.Ctx, opt.BudgetCycles); err != nil {
		return nil, err
	}
	return tl, nil
}

// Fig10 reproduces Figure 10: M3 under HMC, per-source DRAM bandwidth
// over time (paper: CPU bursts before each frame, idles during
// rendering).
func Fig10(opt Options) (*stats.Timeline, error) {
	return TimelineRun(geom.M3Mask, HMC, opt.RegularMbps, opt, opt.AppPeriod/16)
}

// Fig14 reproduces Figure 14: M1 rendering under BAS vs DASH-DTB at high
// load — two timelines showing CPU over-prioritization and display
// starvation under DTB.
func Fig14(opt Options) (bas, dtb *stats.Timeline, err error) {
	bas, err = TimelineRun(geom.M1Chair, BAS, opt.HighMbps, opt, opt.AppPeriod/16)
	if err != nil {
		return nil, nil, err
	}
	dtb, err = TimelineRun(geom.M1Chair, DTB, opt.HighMbps, opt, opt.AppPeriod/16)
	if err != nil {
		return nil, nil, err
	}
	return bas, dtb, nil
}

func sortedModels(res map[int]map[MemConfig]soc.Results) []int {
	var out []int
	for m := 1; m <= 8; m++ {
		if _, ok := res[m]; ok {
			out = append(out, m)
		}
	}
	return out
}
