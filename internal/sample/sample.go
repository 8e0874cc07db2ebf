// Package sample implements checkpoint-parallel sampled simulation —
// the paper's §4.2 checkpointing workflow composed with SimPoint-style
// region selection. A fast functional pass (Pass) replays a recorded
// trace with every timing model off, collecting a per-frame signature
// vector and dropping memory checkpoints at requested frame boundaries;
// SelectRegions clusters the signatures and picks K representative
// frames with weights; RegionRun restores a checkpoint and replays only
// the selected frames through the detailed-timing machine; Reconstruct
// combines the weighted per-region cycle measurements into a whole-run
// estimate. Regions are independent pure functions of (trace, region),
// so they parallelize across workers, sweep jobs and the fleet for
// free.
package sample

import (
	"fmt"

	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
	"emerald/internal/trace"
)

// Default GL heap placement for functional replay: the placement every
// detailed-mode context uses, so a functional checkpoint restores onto
// a detailed system with identical addresses.
const (
	DefaultHeapBase = gl.HeapBase
	DefaultHeapSize = gl.HeapSize
)

// Signature is one frame's workload fingerprint: the dimensions along
// which frames of a scenario differ enough to matter for timing —
// geometry load, rasterization load, shading load and memory traffic.
// It is the clustering feature vector of SimPoint-style selection,
// gathered by the functional pass at zero timing cost.
type Signature struct {
	Draws    uint64 `json:"draws"`
	Verts    uint64 `json:"verts"`
	Prims    uint64 `json:"prims"`     // assembled primitives
	Culled   uint64 `json:"culled"`    // clipped/culled/degenerate
	Tiles    uint64 `json:"tiles"`     // non-empty raster tiles
	Frags    uint64 `json:"frags"`     // fragments shaded
	TexReads uint64 `json:"tex_reads"` // texel fetches
	Bytes    uint64 `json:"bytes"`     // approximate memory traffic
}

// signatureOf condenses the functional executor's counters into the
// clustering feature vector.
func signatureOf(st gpu.FuncStats) Signature {
	return Signature{
		Draws:    st.Draws,
		Verts:    st.Verts,
		Prims:    st.Prims,
		Culled:   st.Culled,
		Tiles:    st.Tiles,
		Frags:    st.Frags,
		TexReads: st.TexReads,
		Bytes:    st.TrafficBytes(),
	}
}

// vector returns the signature as a float feature vector.
func (s Signature) vector() [8]float64 {
	return [8]float64{
		float64(s.Draws), float64(s.Verts), float64(s.Prims), float64(s.Culled),
		float64(s.Tiles), float64(s.Frags), float64(s.TexReads), float64(s.Bytes),
	}
}

// FrameInfo is one frame's record from the functional pass.
type FrameInfo struct {
	Sig   Signature `json:"sig"`
	OpEnd int       `json:"op_end"` // op index just past the frame's FrameEnd
}

// PassConfig parameterizes the functional pass.
type PassConfig struct {
	// HeapBase/HeapSize place the replay context's GL heap (defaults
	// DefaultHeapBase/DefaultHeapSize). They must match the detailed
	// system the checkpoints will restore onto: the bump allocator is
	// deterministic, so identical heap placement means identical object
	// addresses.
	HeapBase, HeapSize uint64
	// CheckpointAt lists the frames at whose start a checkpoint is
	// taken (state after the previous frame's FrameEnd; frame 0 is the
	// pre-replay state — the fresh context's uniform defaults).
	CheckpointAt []int
	// StopAfterLast stops the replay once the highest requested
	// checkpoint has been taken — the region executor's fast path when
	// signatures past that frame are not needed.
	StopAfterLast bool
}

// PassResult is the functional pass's output.
type PassResult struct {
	// Frames holds per-frame signatures in frame order (truncated when
	// StopAfterLast ends the pass early).
	Frames []FrameInfo
	// Checkpoints maps each requested frame to its checkpoint.
	Checkpoints map[int]*trace.Checkpoint
}

// Pass replays the trace functionally — draw calls execute through
// gpu.ExecuteDrawFunc against bare memory, with no cores, caches or
// cycles — collecting per-frame signatures and dropping checkpoints at
// the requested frame starts. Orders of magnitude faster than detailed
// timing; the exactness contract in internal/gpu/functional.go
// guarantees the checkpointed memory is bit-identical to a detailed
// run's.
func Pass(tr *trace.Trace, cfg PassConfig) (*PassResult, error) {
	frames := tr.FrameCount()
	if frames == 0 {
		return nil, fmt.Errorf("sample: trace has no FrameEnd markers; re-record it with frame boundaries")
	}
	if cfg.HeapBase == 0 {
		cfg.HeapBase = DefaultHeapBase
	}
	if cfg.HeapSize == 0 {
		cfg.HeapSize = DefaultHeapSize
	}
	want := make(map[int]bool, len(cfg.CheckpointAt))
	last := -1
	for _, f := range cfg.CheckpointAt {
		if f < 0 || f >= frames {
			return nil, fmt.Errorf("sample: checkpoint frame %d out of range [0,%d)", f, frames)
		}
		want[f] = true
		if f > last {
			last = f
		}
	}

	m := mem.NewMemory()
	ctx := gl.NewContext(m, cfg.HeapBase, cfg.HeapSize)
	var cur gpu.FuncStats
	ctx.Submit = func(call *gpu.DrawCall) error {
		return gpu.ExecuteDrawFunc(m, call, &cur)
	}

	res := &PassResult{Checkpoints: make(map[int]*trace.Checkpoint, len(want))}
	opEnds := tr.FrameOpEnds()
	if want[0] {
		// Frame 0 starts from the pre-replay state: the context's
		// uniform-bank defaults, no replayed assets yet.
		res.Checkpoints[0] = trace.NewCheckpointAt(tr, m, 0, 0, 0)
		if cfg.StopAfterLast && last == 0 {
			return res, nil
		}
	}
	opt := trace.ReplayAll()
	opt.OnFrameEnd = func(f int) error {
		res.Frames = append(res.Frames, FrameInfo{Sig: signatureOf(cur), OpEnd: opEnds[f]})
		cur = gpu.FuncStats{}
		if want[f+1] {
			res.Checkpoints[f+1] = trace.NewCheckpointAt(tr, m, 0, f+1, opEnds[f])
		}
		if cfg.StopAfterLast && last >= 0 && f+1 >= last {
			return trace.ErrStop
		}
		return nil
	}
	if err := trace.Replay(tr, ctx, opt); err != nil {
		return nil, fmt.Errorf("sample: functional pass: %w", err)
	}
	return res, nil
}
