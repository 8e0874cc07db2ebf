package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"

	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/guard"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/sample"
	"emerald/internal/shader"
	"emerald/internal/stats"
	"emerald/internal/trace"
)

// This file is the sampled-simulation harness for Case Study II
// scenarios: record a workload's draw stream once, run the functional
// pass for signatures and checkpoints, select representative regions,
// and execute them in detail — in-process across goroutines
// (RunSampled) or as independent sweep jobs (RunRegionJob).

// RecordWorkloadTrace records one DFSL workload's API stream — the
// same per-frame sequence the detailed CS2 renderer issues — without
// simulating anything: draws are recorded before submission, so a
// no-op submit hook suffices. The recording is deterministic, which is
// what lets region sweep jobs re-record the trace in-job and stay pure
// functions of their canonical spec.
func RecordWorkloadTrace(workload, frames int, opt Options) (*trace.Trace, error) {
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		return nil, err
	}
	if frames < 1 {
		return nil, fmt.Errorf("exp: record needs frames >= 1, got %d", frames)
	}
	m := mem.NewMemory()
	ctx := gl.NewContext(m, sample.DefaultHeapBase, sample.DefaultHeapSize)
	tr := &trace.Trace{}
	ctx.Recorder = tr
	ctx.Submit = func(*gpu.DrawCall) error { return nil }

	ctx.Viewport(opt.CS2Width, opt.CS2Height)
	mesh, err := ctx.UploadMesh(scene.Mesh)
	if err != nil {
		return nil, err
	}
	tex, err := ctx.UploadTexture(scene.Texture)
	if err != nil {
		return nil, err
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		return nil, err
	}
	fs := shader.FSTexturedEarlyZ
	if scene.Translucent {
		fs = shader.FSTexturedBlend
		ctx.Enable(gl.Blend)
		ctx.DepthMask(false)
		ctx.SetAlpha(0.6)
	}
	if err := ctx.UseProgram(shader.VSTransform, fs); err != nil {
		return nil, err
	}
	ctx.SetLight(mathx.V3(0.4, 0.5, 0.8).Normalize())
	aspect := float32(opt.CS2Width) / float32(opt.CS2Height)
	for f := 0; f < frames; f++ {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(f, aspect))
		if err := ctx.DrawMesh(mesh); err != nil {
			return nil, err
		}
		ctx.FrameEnd()
	}
	return tr, nil
}

// replaySystem is a detailed standalone system wired for trace replay:
// every submitted draw runs to completion, matching the straight-
// through CS2 renderer's submit-then-drain loop.
type replaySystem struct {
	S   *gpu.Standalone
	Ctx *gl.Context
	Reg *stats.Registry

	opt  Options
	mark uint64
}

func newReplaySystem(opt Options, reg *stats.Registry) *replaySystem {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	s := gpu.NewStandalone(gpu.CaseStudyIIConfig(), dram.Config{
		Geometry: dram.LPDDR3Geometry(4),
		Timing:   dram.LPDDR3Timing(1600),
	}, reg)
	if opt.Trace != nil {
		s.AttachTracer(opt.Trace)
	}
	if opt.guardOn() {
		s.AttachGuard(guard.NewChecker())
	}
	s.SetWatchdog(opt.WatchdogCycles)
	s.SetParallel(opt.Pool)
	s.SetIdleSkip(!opt.EveryCycle)
	s.SetEventWheel(!opt.EveryCycle)
	s.SetProbe(opt.Probe)
	rs := &replaySystem{S: s, Reg: reg, opt: opt}
	ctx := gl.NewContext(s.Mem(), sample.DefaultHeapBase, sample.DefaultHeapSize)
	ctx.Submit = func(call *gpu.DrawCall) error {
		if err := s.GPU.SubmitDraw(call, nil); err != nil {
			return err
		}
		_, err := s.RunUntilIdleCtx(opt.Ctx, opt.BudgetCycles)
		return err
	}
	ctx.OnClearDepth = s.GPU.ClearHiZ
	rs.Ctx = ctx
	return rs
}

// RegionWarmupFrames is the fixed warm-up policy for region jobs: the
// checkpoint restores functional memory bit-exactly, but caches, Hi-Z
// and DRAM row buffers start cold, so each region replays this many
// preceding frames in detail unmeasured before measurement begins.
// Three frames because the measured cold-start transient on the CS2
// scenarios is ~3 frames long (frame cycles settle to within a few
// percent of steady state by the fourth frame); one warm-up frame
// leaves the measured frame ~3x steady state. A policy constant, not a
// spec field, so region job keys stay canonical.
const RegionWarmupFrames = 3

// checkpointStride is the grid granularity of checkpoint anchors:
// region warm-up starts snap down to a multiple of this, so the
// single-pass pipeline only snapshots every strideth frame boundary
// (a quarter of the snapshot cost) at the price of zero to stride-1
// extra warm-up frames per region — cheap, near-steady-state frames.
const checkpointStride = 4

// warmupStart returns the first detailed (warm-up) frame for a region
// starting at start — where its checkpoint must be anchored. The
// result is always on the checkpoint grid, and at least
// RegionWarmupFrames before start (clamped at frame 0).
func warmupStart(start int) int {
	w0 := start - RegionWarmupFrames
	if w0 < 0 {
		w0 = 0
	}
	return w0 - w0%checkpointStride
}

// regionRun builds the sample.RegionRun wiring for this system. The
// checkpoint must be anchored at warmupStart(start).
func (rs *replaySystem) regionRun(tr *trace.Trace, cp *trace.Checkpoint, start, span int) *sample.RegionRun {
	return &sample.RegionRun{
		Trace: tr, CP: cp, Start: start, Span: span,
		Warmup: start - warmupStart(start),
		Ctx:    rs.Ctx, Mem: rs.S.Mem(),
		OnRestore: func() {
			// The functional checkpoint carries no Hi-Z; drop any built
			// during the (draw-free) prefix and adopt the snapshot clock.
			rs.S.GPU.ClearHiZ()
			if err := rs.S.ResumeAt(cp.Cycle); err != nil {
				panic(fmt.Sprintf("exp: region restore on busy system: %v", err))
			}
			rs.mark = rs.S.Cycle()
		},
		Drain: func(frame int) (uint64, error) {
			// Draws already drained at submit; account the frame's cycles.
			c := rs.S.Cycle()
			d := c - rs.mark
			rs.mark = c
			return d, nil
		},
	}
}

// digest hashes the system's observable end state — registry JSON,
// framebuffer, final cycle — the same SHA-256 gate pattern as the
// workers/skip determinism tests.
func (rs *replaySystem) digest() (string, error) {
	var buf bytes.Buffer
	if err := rs.Reg.DumpJSON(&buf); err != nil {
		return "", err
	}
	cs := rs.Ctx.ColorSurface()
	fb := make([]byte, cs.Width*cs.Height*4)
	rs.S.Mem().Read(cs.Base, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d", rs.S.Cycle())
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// RegionResult is one detailed region measurement — a sweep job
// payload, so it must be a pure function of (workload, frames, start,
// span, scale).
type RegionResult struct {
	Workload    int      `json:"workload"`
	Frames      int      `json:"frames"`
	Start       int      `json:"start"`
	Span        int      `json:"span"`
	FrameCycles []uint64 `json:"frame_cycles"`
	// Digest is the SHA-256 of the end state (registry JSON +
	// framebuffer + cycle) — the resume-fidelity gate's handle.
	Digest string `json:"digest"`
}

// TotalCycles sums the region's per-frame cycles.
func (r *RegionResult) TotalCycles() uint64 {
	var sum uint64
	for _, c := range r.FrameCycles {
		sum += c
	}
	return sum
}

// RunRegionJob executes one detailed region from scratch: re-record
// the workload's trace, functional-pass up to the region start for its
// checkpoint, restore, and run the region frames in detail. Everything
// derives deterministically from the arguments, so the result is
// content-addressable by its spec.
func RunRegionJob(workload, frames, start, span int, opt Options) (*RegionResult, error) {
	tr, err := RecordWorkloadTrace(workload, frames, opt)
	if err != nil {
		return nil, err
	}
	w0 := warmupStart(start)
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: []int{w0}, StopAfterLast: true})
	if err != nil {
		return nil, err
	}
	rs := newReplaySystem(opt, nil)
	cycles, err := rs.regionRun(tr, pass.Checkpoints[w0], start, span).Run()
	if err != nil {
		return nil, err
	}
	dg, err := rs.digest()
	if err != nil {
		return nil, err
	}
	return &RegionResult{
		Workload: workload, Frames: frames, Start: start, Span: span,
		FrameCycles: cycles, Digest: dg,
	}, nil
}

// SampledResult is the in-process sampled pipeline's outcome.
type SampledResult struct {
	Workload int                `json:"workload"`
	Frames   int                `json:"frames"`
	K        int                `json:"k"`
	Span     int                `json:"span"`
	Sigs     []sample.FrameInfo `json:"sigs"`
	Regions  []sample.Region    `json:"regions"`
	Results  []*RegionResult    `json:"results"`
	Estimate sample.Estimate    `json:"estimate"`
}

// RunSampled is the whole sampled-simulation pipeline in one process:
// record the scenario, functional-pass it for per-frame signatures,
// cluster the signatures into k regions, checkpoint the region starts,
// run each region in detail (up to parallel at once, each on its own
// system and registry), and reconstruct the whole-run estimate from
// the weighted region means.
func RunSampled(workload, frames, k, span, parallel int, opt Options) (*SampledResult, error) {
	tr, err := RecordWorkloadTrace(workload, frames, opt)
	if err != nil {
		return nil, err
	}
	// One functional pass serves both signatures and checkpoints: region
	// starts aren't known until after clustering, so checkpoint every
	// grid frame a warm-up start can snap to. A checkpoint is a copy of
	// the materialized pages (a few hundred KB at quick scales), which
	// is far cheaper than the second functional replay it replaces.
	var grid []int
	for f := 0; f < frames; f += checkpointStride {
		grid = append(grid, f)
	}
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: grid})
	if err != nil {
		return nil, err
	}
	regions, err := sample.SelectRegions(pass.Frames, k)
	if err != nil {
		return nil, err
	}

	if parallel < 1 {
		parallel = 1
	}
	ropt := opt
	if parallel > 1 {
		// Region fan-out owns the process parallelism; the tick-engine
		// pool is not shareable across concurrently running systems.
		ropt.Pool = nil
	}
	results := make([]*RegionResult, len(regions))
	errs := make([]error, len(regions))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, reg := range regions {
		wg.Add(1)
		go func(i int, reg sample.Region) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rs := newReplaySystem(ropt, nil)
			cycles, err := rs.regionRun(tr, pass.Checkpoints[warmupStart(reg.Frame)], reg.Frame, span).Run()
			if err != nil {
				errs[i] = fmt.Errorf("region at frame %d: %w", reg.Frame, err)
				return
			}
			dg, err := rs.digest()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = &RegionResult{
				Workload: workload, Frames: frames, Start: reg.Frame, Span: span,
				FrameCycles: cycles, Digest: dg,
			}
		}(i, reg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cycles := make([][]uint64, len(results))
	for i, r := range results {
		cycles[i] = r.FrameCycles
	}
	est, err := sample.Reconstruct(frames, regions, cycles)
	if err != nil {
		return nil, err
	}
	return &SampledResult{
		Workload: workload, Frames: frames, K: k, Span: span,
		Sigs: pass.Frames, Regions: regions, Results: results, Estimate: est,
	}, nil
}
