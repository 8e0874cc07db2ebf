package exp

import (
	"fmt"

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
// and execute them in detail as region cells: in process from the
// pass's checkpoints, across goroutines (RunSampled), or as independent
// sweep jobs, each re-recording its own trace (RunSampledCells,
// RunRegionJob). The rest of the pipeline is written once, in sampled.

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

// runRegion runs a region cell on a fresh replay system from cp, the
// checkpoint anchored at warmupStart(c.Start).
func runRegion(c Cell, cp *trace.Checkpoint, opt Options) (*RegionResult, error) {
	r := NewReplay(opt)
	cycles, err := r.RunRegion(cp, c.Start, c.Span)
	if err != nil {
		return nil, err
	}
	dg, err := r.digest()
	if err != nil {
		return nil, err
	}
	return &RegionResult{
		Workload: c.Workload, Frames: c.Frames, Start: c.Start, Span: c.Span,
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
// content-addressable by its spec. It is how RunCell runs a RegionCell.
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
	c := Cell{Kind: RegionCell, Workload: workload, Frames: frames, Start: start, Span: span}
	return runRegion(c, pass.Checkpoints[w0], opt)
}

// SampledResult is the sampled pipeline's outcome.
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

// RunSampled is the whole sampled-simulation pipeline in one process.
// It runs each selected region in detail from the one functional pass's
// checkpoints, up to parallel at once, each on its own system and
// registry, under runCells' rules.
func RunSampled(workload, frames, k, span, parallel int, opt Options) (*SampledResult, error) {
	// One functional pass serves both signatures and checkpoints: region
	// starts aren't known until after clustering, so checkpoint every
	// grid frame a warm-up start can snap to. A checkpoint is a copy of
	// the materialized pages (a few hundred KB at quick scales), which
	// is far cheaper than the functional replay per region it replaces.
	var grid []int
	for f := 0; f < frames; f += checkpointStride {
		grid = append(grid, f)
	}
	ropt := opt
	ropt.Workers = parallel
	return sampled(workload, frames, k, span, opt, grid, func(pass *sample.PassResult, cells []Cell) ([]CellResult, error) {
		return runCells(ropt, len(cells), func(i int) (CellResult, error) {
			c := cells[i]
			r, err := runRegion(c, pass.Checkpoints[warmupStart(c.Start)], ropt)
			if err != nil {
				return CellResult{}, fmt.Errorf("region at frame %d: %w", c.Start, err)
			}
			return CellResult{Region: r}, nil
		})
	})
}

// RunSampledCells is the sampled pipeline with the selected regions run
// by batch as region cells, each from scratch (RunRegionJob): how the
// sweep service runs them, as jobs. Its functional pass takes no
// checkpoints.
func RunSampledCells(workload, frames, k, span int, opt Options, batch func([]Cell) ([]CellResult, error)) (*SampledResult, error) {
	return sampled(workload, frames, k, span, opt, nil, func(_ *sample.PassResult, cells []Cell) ([]CellResult, error) {
		return batch(cells)
	})
}

// sampled is the pipeline RunSampled and RunSampledCells share: record
// the scenario, functional-pass it for per-frame signatures (and
// checkpoints at the grid frames), cluster the signatures into k
// regions, hand run one region cell per region, and reconstruct the
// whole-run estimate from the weighted region means.
func sampled(workload, frames, k, span int, opt Options, grid []int,
	run func(*sample.PassResult, []Cell) ([]CellResult, error)) (*SampledResult, error) {
	tr, err := RecordWorkloadTrace(workload, frames, opt)
	if err != nil {
		return nil, err
	}
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: grid})
	if err != nil {
		return nil, err
	}
	regions, err := sample.SelectRegions(pass.Frames, k)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(regions))
	for i, reg := range regions {
		cells[i] = Cell{Kind: RegionCell, Workload: workload, Frames: frames, Start: reg.Frame, Span: span}
	}
	res, err := run(pass, cells)
	if err != nil {
		return nil, err
	}
	out := &SampledResult{Workload: workload, Frames: frames, K: k, Span: span,
		Sigs: pass.Frames, Regions: regions, Results: make([]*RegionResult, len(res))}
	cycles := make([][]uint64, len(res))
	for i, r := range res {
		out.Results[i], cycles[i] = r.Region, r.Region.FrameCycles
	}
	if out.Estimate, err = sample.Reconstruct(frames, regions, cycles); err != nil {
		return nil, err
	}
	return out, nil
}
