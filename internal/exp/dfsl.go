package exp

import (
	"context"
	"fmt"
	"strings"

	"emerald/internal/emtrace"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/stats"
)

// CS2Renderer drives Case Study II: frames of one workload on the
// standalone Table 7 GPU, with the work-tile granularity adjustable
// between frames.
type CS2Renderer struct {
	S     *gpu.Standalone
	Ctx   *gl.Context
	Scene *geom.Scene
	Reg   *stats.Registry

	mesh   gl.MeshHandle
	frame  int
	aspect float32
	budget uint64
	trace  *emtrace.Tracer
	ctx    context.Context
}

// NewCS2Renderer builds the standalone system for one workload. When
// opt.Stats is set the system publishes its counters there (cmd/dfsl's
// -stats-json); per-figure delta math (Fig18's miss sums) subtracts a
// baseline around each measured frame, so a registry shared across
// sequential systems stays correct.
func NewCS2Renderer(scene *geom.Scene, opt Options) (*CS2Renderer, error) {
	s, ctx := newStandalone(opt, opt.Stats)
	if err := ctx.Viewport(opt.CS2Width, opt.CS2Height); err != nil {
		return nil, err
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		return nil, err
	}
	return &CS2Renderer{
		S: s, Ctx: ctx, Scene: scene, Reg: s.Reg,
		mesh:   mesh,
		aspect: float32(opt.CS2Width) / float32(opt.CS2Height),
		budget: opt.BudgetCycles,
		trace:  opt.Trace,
		ctx:    opt.Ctx,
	}, nil
}

// drawCS2Frame issues frame f's API calls. The detailed renderer and
// the trace recorder both go through it: a sampled region is only valid
// while the recorded stream is the stream the renderer issues.
func drawCS2Frame(ctx *gl.Context, scene *geom.Scene, mesh gl.MeshHandle, f int, aspect float32) error {
	ctx.Clear(0xFF101020, true)
	ctx.SetMVP(scene.MVP(f, aspect))
	return ctx.DrawMesh(mesh)
}

// RenderFrame renders the next frame at the given WT size and returns
// its execution cycles. advance controls whether the camera moves
// (temporal coherence) or the same frame is re-rendered (WT sweeps).
func (r *CS2Renderer) RenderFrame(wt int, advance bool) (uint64, error) {
	r.S.GPU.SetWT(wt)
	start := r.S.Cycle()
	if err := drawCS2Frame(r.Ctx, r.Scene, r.mesh, r.frame, r.aspect); err != nil {
		return 0, err
	}
	if _, err := r.S.RunUntilIdleCtx(r.ctx, r.budget); err != nil {
		return 0, err
	}
	if advance {
		r.frame++
	}
	r.trace.FrameMark()
	return r.S.Cycle() - start, nil
}

// missSum sums a per-core L1 miss counter across every GPU core.
func (r *CS2Renderer) missSum(cacheName string) int64 {
	var sum int64
	for _, n := range r.Reg.Names() {
		if strings.Contains(n, "."+cacheName+".misses") {
			sum += r.Reg.Value(n)
		}
	}
	return sum
}

// WTSweep renders the same frame once per WT size in [1, maxWT] and
// returns per-WT execution cycles (after one warmup render).
func (r *CS2Renderer) WTSweep(maxWT int) ([]uint64, error) {
	if _, err := r.RenderFrame(1, false); err != nil { // warmup
		return nil, err
	}
	out := make([]uint64, maxWT)
	for wt := 1; wt <= maxWT; wt++ {
		c, err := r.RenderFrame(wt, false)
		if err != nil {
			return nil, err
		}
		out[wt-1] = c
	}
	return out, nil
}

// RunWTSweep runs one workload's WT sweep (Figure 17's unit of work):
// per-WT frame execution cycles for sizes 1..opt.MaxWT.
func RunWTSweep(workload int, opt Options) ([]uint64, error) {
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		return nil, err
	}
	r, err := NewCS2Renderer(scene, opt)
	if err != nil {
		return nil, err
	}
	times, err := r.WTSweep(opt.MaxWT)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", scene.Name, err)
	}
	return times, nil
}

// Fig18 reproduces Figure 18: W1 execution time and L1 cache misses
// (color=L1D, texture=L1T, depth=L1Z) versus WT size, normalized to
// WT=1.
func Fig18(opt Options) (*stats.Table, error) {
	scene, err := geom.DFSLWorkload(geom.W1Sibenik)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 18: W1 execution time and L1 misses vs WT (normalized to WT=1)",
		"WT", "exec_time", "color_misses", "texture_misses", "depth_misses")

	var base [4]float64
	for wt := 1; wt <= opt.MaxWT; wt++ {
		// Fresh system per WT so cache-miss counters are isolated.
		r, err := NewCS2Renderer(scene, opt)
		if err != nil {
			return nil, err
		}
		if _, err := r.RenderFrame(wt, false); err != nil { // warmup
			return nil, err
		}
		d0 := [3]int64{r.missSum("l1d"), r.missSum("l1t"), r.missSum("l1z")}
		cycles, err := r.RenderFrame(wt, false)
		if err != nil {
			return nil, err
		}
		vals := [4]float64{
			float64(cycles),
			float64(r.missSum("l1d") - d0[0]),
			float64(r.missSum("l1t") - d0[1]),
			float64(r.missSum("l1z") - d0[2]),
		}
		if wt == 1 {
			base = vals
		}
		norm := func(i int) float64 {
			if base[i] == 0 {
				return 0
			}
			return vals[i] / base[i]
		}
		t.AddRow(wt, norm(0), norm(1), norm(2), norm(3))
	}
	return t, nil
}

// DFSLPolicy identifies a Figure 19 configuration.
type DFSLPolicy int

// Figure 19 policies.
const (
	MLB  DFSLPolicy = iota // maximum load balance: WT=1
	MLC                    // maximum locality: WT=MaxWT
	SOPT                   // static best-average WT across workloads
	DFSL                   // the dynamic controller (Algorithm 1)
)

func (p DFSLPolicy) String() string {
	return [...]string{"MLB", "MLC", "SOPT", "DFSL"}[p]
}

// Fig19 reproduces Figure 19: average frame time under MLB / MLC / SOPT
// / DFSL per workload, reported as speedup normalized to MLB (paper:
// DFSL ~+19% over MLB, ~+7.3% over SOPT). sweeps are the workloads' WT
// sweeps, from which SOPT is picked; each policy then runs over an
// identical frame sequence.
func Fig19(opt Options, workloads []int, sweeps map[int][]uint64) (*stats.Table, map[int]map[DFSLPolicy]float64, error) {
	sopt := SOPTFromSweeps(sweeps, opt.MaxWT)
	raw := make(map[int]map[DFSLPolicy]float64)
	for _, w := range workloads {
		raw[w] = make(map[DFSLPolicy]float64)
		for _, p := range AllDFSLPolicies() {
			avg, err := RunCS2Policy(w, p, sopt, opt)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s: %w", workloadName(w), p, err)
			}
			raw[w][p] = avg
		}
	}
	return Fig19Table(workloads, raw, sopt, opt.MaxWT, opt.DFSLRunFrames), raw, nil
}

// RunCS2Policy runs one workload under one Figure 19 policy (Figure
// 19's unit of work) and returns the average frame execution cycles
// over the evaluation + run phases. sopt is the static WT used when
// policy is SOPT (ignored otherwise).
func RunCS2Policy(workload int, policy DFSLPolicy, sopt int, opt Options) (float64, error) {
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		return 0, err
	}
	r, err := NewCS2Renderer(scene, opt)
	if err != nil {
		return 0, err
	}
	evalFrames := opt.MaxWT // DFSL evaluation phase length
	totalFrames := evalFrames + opt.DFSLRunFrames
	ctrl := gpu.NewDFSL(1, opt.MaxWT, opt.DFSLRunFrames)
	// One untimed warmup frame so cold caches do not contaminate the
	// first evaluation phase (all policies get the same treatment).
	if _, err := r.RenderFrame(1, true); err != nil {
		return 0, err
	}
	var sum float64
	for f := 0; f < totalFrames; f++ {
		wt := 1
		switch policy {
		case MLB:
			wt = 1
		case MLC:
			wt = opt.MaxWT
		case SOPT:
			wt = sopt
		case DFSL:
			wt = ctrl.NextWT()
		}
		cycles, err := r.RenderFrame(wt, true)
		if err != nil {
			return 0, err
		}
		if policy == DFSL {
			ctrl.ObserveFrame(cycles)
		}
		sum += float64(cycles)
	}
	return sum / float64(totalFrames), nil
}

func workloadName(w int) string {
	name, err := geom.DFSLWorkloadName(w)
	if err != nil {
		return fmt.Sprintf("W%d", w)
	}
	return name
}
