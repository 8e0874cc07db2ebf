package exp

import (
	"fmt"
	"sync"

	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
	"emerald/internal/sample"
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
	ctx := gl.NewContext(mem.NewMemory(), gl.HeapBase, gl.HeapSize)
	tr := &trace.Trace{}
	ctx.Recorder = tr
	ctx.Submit = func(*gpu.DrawCall) error { return nil }

	if err := ctx.Viewport(opt.CS2Width, opt.CS2Height); err != nil {
		return nil, err
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		return nil, err
	}
	aspect := float32(opt.CS2Width) / float32(opt.CS2Height)
	for f := 0; f < frames; f++ {
		if err := drawCS2Frame(ctx, scene, mesh, f, aspect); err != nil {
			return nil, err
		}
		ctx.FrameEnd()
	}
	return tr, nil
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

// runRegion runs one region on a fresh replay system from the
// checkpoint anchored at warmupStart(start).
func runRegion(workload, frames int, tr *trace.Trace, cp *trace.Checkpoint, start, span int, opt Options) (*RegionResult, error) {
	r := NewReplay(opt)
	cycles, err := r.RunRegion(tr, cp, start, start-warmupStart(start), span)
	if err != nil {
		return nil, err
	}
	dg, err := r.digest()
	if err != nil {
		return nil, err
	}
	return &RegionResult{
		Workload: workload, Frames: frames, Start: start, Span: span,
		FrameCycles: cycles, Digest: dg,
	}, nil
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
	return runRegion(workload, frames, tr, pass.Checkpoints[w0], start, span, opt)
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
			res, err := runRegion(workload, frames, tr, pass.Checkpoints[warmupStart(reg.Frame)], reg.Frame, span, ropt)
			if err != nil {
				errs[i] = fmt.Errorf("region at frame %d: %w", reg.Frame, err)
				return
			}
			results[i] = res
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
