package exp

import (
	"bytes"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
	"emerald/internal/par"
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
func regionState(t *testing.T, tr *trace.Trace, cp *trace.Checkpoint, start, span int,
	pool *par.Pool, everyCycle bool) (string, []byte) {
	t.Helper()
	opt := sampleTestOptions()
	opt.Pool = pool
	opt.EveryCycle = everyCycle
	rs := NewReplay(opt)
	if _, err := rs.RunRegion(tr, cp, start, start-warmupStart(start), span); err != nil {
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
// memory or from a Save→Load file round trip, at workers 1 and 4, in
// the default and the every-cycle mode; and its final framebuffer must
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
	ref, refFB := regionState(t, tr, cp, start, span, nil, false)

	pool := par.NewPool(4)
	defer pool.Close()
	legs := []struct {
		name       string
		cp         *trace.Checkpoint
		pool       *par.Pool
		everyCycle bool
	}{
		{"file round trip", loaded, nil, false},
		{"workers=4", cp, pool, false},
		{"every-cycle", cp, nil, true},
		{"workers=4 every-cycle", loaded, pool, true},
	}
	for _, leg := range legs {
		got, _ := regionState(t, tr, leg.cp, start, span, leg.pool, leg.everyCycle)
		if got != ref {
			t.Errorf("%s: resume digest %s != reference %s", leg.name, got, ref)
		}
	}

	// Functional-equivalence gate: the resumed run's final framebuffer
	// must match the straight-through detailed replay (resuming from
	// frame 0's checkpoint replays every frame in detail).
	_, straightFB := regionState(t, tr, pass.Checkpoints[0], 0, frames, nil, false)
	if !bytes.Equal(refFB, straightFB) {
		t.Error("resumed run's final framebuffer differs from the straight-through detailed replay")
	}
}

// TestRunRegionJobDeterministic: the sweep executor's unit of work
// must be a pure function of its spec — identical digests and cycles
// across repeated runs and across worker counts.
func TestRunRegionJobDeterministic(t *testing.T) {
	opt := sampleTestOptions()
	a, err := RunRegionJob(geom.W3Cube, 3, 1, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.FrameCycles) != 2 || a.TotalCycles() == 0 {
		t.Fatalf("region job measured %v cycles", a.FrameCycles)
	}
	pool := par.NewPool(4)
	defer pool.Close()
	popt := opt
	popt.Pool = pool
	b, err := RunRegionJob(geom.W3Cube, 3, 1, 2, popt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("workers=1 digest %s != workers=4 digest %s", a.Digest, b.Digest)
	}
	for i := range a.FrameCycles {
		if a.FrameCycles[i] != b.FrameCycles[i] {
			t.Errorf("frame %d cycles %d != %d across worker counts", i, a.FrameCycles[i], b.FrameCycles[i])
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
