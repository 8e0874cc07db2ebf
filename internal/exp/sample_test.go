package exp

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
	"emerald/internal/sample"
	"emerald/internal/trace"
)

// sampleTestOptions scales Case Study II down to test size.
func sampleTestOptions() Options {
	opt := Smoke()
	opt.CS2Width, opt.CS2Height = 48, 48
	return opt
}

// TestFunctionalMatchesDetailed is the exactness gate of the sampled
// pipeline: the functional executor must leave memory bit-identical to
// the detailed pipeline — same page set, same bytes — for an opaque
// early-Z workload (W3) and a translucent blending one (W5). Equality
// is checked through the canonical checkpoint digest, which covers
// every materialized page in sorted order.
func TestFunctionalMatchesDetailed(t *testing.T) {
	opt := sampleTestOptions()
	for _, w := range []int{geom.W3Cube, geom.W5SuzanneT} {
		tr, err := RecordWorkloadTrace(w, 2, opt)
		if err != nil {
			t.Fatal(err)
		}

		// Functional leg.
		fm := mem.NewMemory()
		fctx := gl.NewContext(fm, sample.DefaultHeapBase, sample.DefaultHeapSize)
		fctx.Submit = func(call *gpu.DrawCall) error {
			return gpu.ExecuteDrawFunc(fm, call, nil)
		}
		if err := trace.Replay(tr, fctx, trace.ReplayAll()); err != nil {
			t.Fatal(err)
		}

		// Detailed leg.
		rs := NewReplay(opt)
		dopt := trace.ReplayAll()
		if err := trace.Replay(tr, rs.Ctx, dopt); err != nil {
			t.Fatal(err)
		}

		fd, err := trace.NewCheckpoint(tr, fm, 0, 2).Digest()
		if err != nil {
			t.Fatal(err)
		}
		dd, err := trace.NewCheckpoint(tr, rs.S.Mem(), 0, 2).Digest()
		if err != nil {
			t.Fatal(err)
		}
		if fd != dd {
			t.Errorf("W%d: functional memory digest %s != detailed %s (pages %d vs %d)",
				w, fd, dd, fm.PageCount(), rs.S.Mem().PageCount())
		}
	}
}

// regionState runs one region leg and returns its end-state digest and
// final framebuffer.
func regionState(t *testing.T, cp *trace.Checkpoint, start, span int, everyCycle bool) (string, []byte) {
	t.Helper()
	opt := sampleTestOptions()
	opt.EveryCycle = everyCycle
	rs := NewReplay(opt)
	if _, err := rs.RunRegion(cp, start, span); err != nil {
		t.Fatal(err)
	}
	dg, err := rs.digest()
	if err != nil {
		t.Fatal(err)
	}
	cs := rs.Ctx.ColorSurface()
	fb := make([]byte, cs.Width*cs.Height*4)
	rs.S.Mem().Read(cs.Base, fb)
	return dg, fb
}

// TestCheckpointResumeFidelity is the resume digest gate: a detailed
// region resumed from a checkpoint must be bit-identical — registry
// JSON, framebuffer, final cycle — whether the checkpoint came from
// memory or from a Save→Load file round trip, in the default and the
// every-cycle mode; and its final framebuffer must
// match the straight-through detailed replay of the whole scenario.
func TestCheckpointResumeFidelity(t *testing.T) {
	const frames, start = 4, 2
	opt := sampleTestOptions()
	tr, err := RecordWorkloadTrace(geom.W3Cube, frames, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The region executor anchors its checkpoint one warm-up frame
	// before the first measured frame.
	w0 := warmupStart(start)
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: []int{0, w0}})
	if err != nil {
		t.Fatal(err)
	}
	cp := pass.Checkpoints[w0]

	// File round trip: Save → bytes → Load.
	raw, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	span := frames - start
	ref, refFB := regionState(t, cp, start, span, false)

	legs := []struct {
		name       string
		cp         *trace.Checkpoint
		everyCycle bool
	}{
		{"file round trip", loaded, false},
		{"every-cycle", cp, true},
		{"file round trip every-cycle", loaded, true},
	}
	for _, leg := range legs {
		got, _ := regionState(t, leg.cp, start, span, leg.everyCycle)
		if got != ref {
			t.Errorf("%s: resume digest %s != reference %s", leg.name, got, ref)
		}
	}

	// Functional-equivalence gate: the resumed run's final framebuffer
	// must match the straight-through detailed replay (resuming from
	// frame 0's checkpoint replays every frame in detail).
	_, straightFB := regionState(t, pass.Checkpoints[0], 0, frames, false)
	if !bytes.Equal(refFB, straightFB) {
		t.Error("resumed run's final framebuffer differs from the straight-through detailed replay")
	}
}

// TestSharedCheckpointNeverWritten: regions restore by mapping the
// checkpoint's pages, so two regions run at once from one grid
// checkpoint share them; each region's writes must land in its own
// copies and leave every checkpoint byte where the pass put it.
func TestSharedCheckpointNeverWritten(t *testing.T) {
	const frames, grid = 9, checkpointStride
	opt := sampleTestOptions()
	tr, err := RecordWorkloadTrace(geom.W3Cube, frames, opt)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: []int{grid}})
	if err != nil {
		t.Fatal(err)
	}
	// By the grid frame the checkpoint holds the scene and both
	// surfaces, which every region draws into.
	cp := pass.Checkpoints[grid]
	hashPages := func() map[uint64][sha256.Size]byte {
		h := make(map[uint64][sha256.Size]byte, len(cp.Pages))
		for p, d := range cp.Pages {
			h[p] = sha256.Sum256(d)
		}
		return h
	}
	before := hashPages()

	cells := []Cell{
		{Kind: RegionCell, Workload: geom.W3Cube, Frames: frames, Start: grid + RegionWarmupFrames, Span: 2},
		{Kind: RegionCell, Workload: geom.W3Cube, Frames: frames, Start: grid + RegionWarmupFrames + 1, Span: 1},
	}
	for _, c := range cells {
		if warmupStart(c.Start) != grid {
			t.Fatalf("region at %d anchors at %d, not the grid frame %d", c.Start, warmupStart(c.Start), grid)
		}
	}
	ropt := opt
	ropt.Workers = 2
	res, err := runCells(ropt, len(cells), func(i int) (*RegionResult, error) {
		return runRegion(cells[i], cp, ropt)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.TotalCycles() == 0 {
			t.Fatalf("region %d measured no cycles: %v", i, r.FrameCycles)
		}
	}
	after := hashPages()
	if len(after) != len(before) {
		t.Fatalf("checkpoint holds %d pages after the regions, %d before", len(after), len(before))
	}
	for p, h := range before {
		if after[p] != h {
			t.Errorf("checkpoint page %#x changed while regions ran from it", p)
		}
	}
}

// TestRunRegionJobDeterministic: the sweep executor's unit of work
// must be a pure function of its spec — identical digests and cycles
// across repeated runs.
func TestRunRegionJobDeterministic(t *testing.T) {
	opt := sampleTestOptions()
	a, err := RunRegionJob(geom.W3Cube, 3, 1, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.FrameCycles) != 2 || a.TotalCycles() == 0 {
		t.Fatalf("region job measured %v cycles", a.FrameCycles)
	}
	b, err := RunRegionJob(geom.W3Cube, 3, 1, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("first run's digest %s != second run's %s", a.Digest, b.Digest)
	}
	for i := range a.FrameCycles {
		if a.FrameCycles[i] != b.FrameCycles[i] {
			t.Errorf("frame %d cycles %d != %d across runs", i, a.FrameCycles[i], b.FrameCycles[i])
		}
	}
}

// TestRunSampledPipeline runs the whole in-process pipeline on a short
// scenario and sanity-checks the reconstruction against the true full
// detailed run.
func TestRunSampledPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-vs-sampled comparison is several detailed frames")
	}
	const frames = 6
	opt := sampleTestOptions()
	res, err := RunSampled(geom.W3Cube, frames, 2, 1, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 2 || len(res.Sigs) != frames {
		t.Fatalf("pipeline selected %d regions over %d signatures", len(res.Regions), len(res.Sigs))
	}
	if res.Estimate.TotalCycles == 0 {
		t.Fatal("reconstruction estimated zero cycles")
	}
	// The scenario is homogeneous (same mesh, slowly orbiting camera),
	// so the sampled estimate should land near the true total.
	full, err := RunRegionJob(geom.W3Cube, frames, 0, frames, opt)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(full.TotalCycles())
	est := float64(res.Estimate.TotalCycles)
	if ratio := est / truth; ratio < 0.5 || ratio > 2 {
		t.Errorf("sampled estimate %v vs true %v (ratio %.2f) outside tolerance", est, truth, ratio)
	}
}
