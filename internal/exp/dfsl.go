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

// RunWTSweep runs one workload's WT sweep (Figure 17's unit of work):
// the same frame rendered once per WT size 1..opt.MaxWT, after one
// warmup render, and its per-WT execution cycles.
func RunWTSweep(workload int, opt Options) ([]uint64, error) {
	r, err := workloadRenderer(workload, opt)
	if err != nil {
		return nil, err
	}
	if _, err := r.RenderFrame(1, false); err != nil { // warmup
		return nil, fmt.Errorf("%s: %w", r.Scene.Name, err)
	}
	out := make([]uint64, opt.MaxWT)
	for wt := 1; wt <= opt.MaxWT; wt++ {
		if out[wt-1], err = r.RenderFrame(wt, false); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Scene.Name, err)
		}
	}
	return out, nil
}

// workloadRenderer builds the renderer of one Table 8 workload on a
// fresh system.
func workloadRenderer(workload int, opt Options) (*CS2Renderer, error) {
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		return nil, err
	}
	return NewCS2Renderer(scene, opt)
}

// runWTPoint renders one workload on a fresh system at one WT size, a
// warmup frame and then a measured one (Figure 18's unit of work), and
// returns the measured frame's cycles and its L1 color, texture and
// depth misses.
func runWTPoint(workload, wt int, opt Options) ([4]float64, error) {
	r, err := workloadRenderer(workload, opt)
	if err != nil {
		return [4]float64{}, err
	}
	if _, err := r.RenderFrame(wt, false); err != nil { // warmup
		return [4]float64{}, err
	}
	d0 := [3]int64{r.missSum("l1d"), r.missSum("l1t"), r.missSum("l1z")}
	cycles, err := r.RenderFrame(wt, false)
	return [4]float64{
		float64(cycles),
		float64(r.missSum("l1d") - d0[0]),
		float64(r.missSum("l1t") - d0[1]),
		float64(r.missSum("l1z") - d0[2]),
	}, err
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

// RunCS2Policy runs one workload under one Figure 19 policy (Figure
// 19's unit of work) and returns the average frame execution cycles
// over the evaluation + run phases. sopt is the static WT used when
// policy is SOPT (ignored otherwise).
func RunCS2Policy(workload int, policy DFSLPolicy, sopt int, opt Options) (float64, error) {
	r, err := workloadRenderer(workload, opt)
	if err != nil {
		return 0, err
	}
	evalFrames := opt.MaxWT // DFSL evaluation phase length
	totalFrames := evalFrames + opt.DFSLRunFrames
	ctrl := gpu.NewDFSL(1, opt.MaxWT, opt.DFSLRunFrames)
	// One untimed warmup frame so cold caches do not contaminate the
	// first evaluation phase (all policies get the same treatment).
	if _, err := r.RenderFrame(1, true); err != nil {
		return 0, fmt.Errorf("%s/%s: %w", r.Scene.Name, policy, err)
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
			return 0, fmt.Errorf("%s/%s: %w", r.Scene.Name, policy, err)
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
