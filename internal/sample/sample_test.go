package sample

import (
	"math"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
	"emerald/internal/trace"
)

// recordCube records a few frames of the W3 cube workload at a tiny
// viewport — recording needs no simulation, just a no-op submit.
func recordCube(t testing.TB, frames int) *trace.Trace {
	t.Helper()
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	ctx := gl.NewContext(m, DefaultHeapBase, DefaultHeapSize)
	tr := &trace.Trace{}
	ctx.Recorder = tr
	ctx.Submit = func(*gpu.DrawCall) error { return nil }
	if err := ctx.Viewport(48, 48); err != nil {
		t.Fatal(err)
	}
	h, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		ctx.Clear(0xFF000000, true)
		ctx.SetMVP(scene.MVP(f, 1))
		if err := ctx.DrawMesh(h); err != nil {
			t.Fatal(err)
		}
		ctx.FrameEnd()
	}
	return tr
}

// TestPassSignaturesAndCheckpoints runs the functional pass over a
// short recording and checks per-frame signatures, checkpoint
// placement, and digest stability across repeated passes.
func TestPassSignaturesAndCheckpoints(t *testing.T) {
	tr := recordCube(t, 3)
	res, err := Pass(tr, PassConfig{CheckpointAt: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 3 {
		t.Fatalf("pass saw %d frames, want 3", len(res.Frames))
	}
	for f, fi := range res.Frames {
		if fi.Sig.Draws != 1 || fi.Sig.Frags == 0 || fi.Sig.Bytes == 0 {
			t.Fatalf("frame %d signature looks empty: %+v", f, fi.Sig)
		}
	}
	cp0, cp2 := res.Checkpoints[0], res.Checkpoints[2]
	if cp0 == nil || cp2 == nil {
		t.Fatal("requested checkpoints missing")
	}
	// The frame-0 snapshot is the pre-replay state: just the context's
	// uniform-bank defaults (one page), none of the replayed assets.
	if len(cp0.Pages) != 1 {
		t.Fatalf("frame-0 checkpoint has %d pages, want 1 (uniform defaults only)", len(cp0.Pages))
	}
	if cp2.Frame != 2 || cp2.OpIndex != tr.FrameOpEnds()[1] {
		t.Fatalf("frame-2 checkpoint anchored at frame %d op %d", cp2.Frame, cp2.OpIndex)
	}
	if len(cp2.Pages) == 0 {
		t.Fatal("frame-2 checkpoint captured no memory")
	}

	// The pass is deterministic: repeating it reproduces the checkpoint
	// bit for bit.
	again, err := Pass(tr, PassConfig{CheckpointAt: []int{2}, StopAfterLast: true})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := cp2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := again.Checkpoints[2].Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("repeated functional pass produced a different checkpoint: %s vs %s", d1, d2)
	}
	if len(again.Frames) != 2 {
		t.Fatalf("StopAfterLast replayed %d frames, want 2", len(again.Frames))
	}
}

// TestPassRejectsUnmarkedTrace: traces without FrameEnd markers cannot
// anchor checkpoints and must be rejected with guidance.
func TestPassRejectsUnmarkedTrace(t *testing.T) {
	tr := &trace.Trace{}
	tr.Op("Viewport", []uint32{48, 48}, nil)
	if _, err := Pass(tr, PassConfig{}); err == nil {
		t.Fatal("Pass accepted a trace with no frame markers")
	}
}

// sigFrames builds synthetic FrameInfos with two obvious clusters.
func sigFrames(n int) []FrameInfo {
	out := make([]FrameInfo, n)
	for i := range out {
		base := uint64(1000)
		if i >= n/2 {
			base = 100000 // second half is 100x heavier
		}
		out[i] = FrameInfo{Sig: Signature{
			Draws: 1, Verts: base, Prims: base / 3, Tiles: base / 2,
			Frags: base * 4, TexReads: base * 4, Bytes: base * 64,
		}}
	}
	return out
}

// TestSelectRegionsClusters checks the selection finds the two planted
// clusters, weights them by population, and is deterministic.
func TestSelectRegionsClusters(t *testing.T) {
	frames := sigFrames(20)
	regions, err := SelectRegions(frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("selected %d regions, want 2", len(regions))
	}
	if regions[0].Frame >= 10 || regions[1].Frame < 10 {
		t.Fatalf("representatives %d,%d do not straddle the planted clusters", regions[0].Frame, regions[1].Frame)
	}
	var wsum float64
	for _, r := range regions {
		wsum += r.Weight
		if r.Count != 10 {
			t.Fatalf("cluster at frame %d counts %d members, want 10", r.Frame, r.Count)
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", wsum)
	}
	again, err := SelectRegions(frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range regions {
		if regions[i] != again[i] {
			t.Fatalf("selection is nondeterministic: %+v vs %+v", regions[i], again[i])
		}
	}
}

// TestSelectRegionsDegenerate: k >= n degenerates to one region per
// frame (a full detailed run), and bad inputs error.
func TestSelectRegionsDegenerate(t *testing.T) {
	frames := sigFrames(4)
	regions, err := SelectRegions(frames, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("k>=n selected %d regions, want 4", len(regions))
	}
	for i, r := range regions {
		if r.Frame != i || r.Count != 1 {
			t.Fatalf("region %d = %+v, want frame %d count 1", i, r, i)
		}
	}
	if _, err := SelectRegions(nil, 2); err == nil {
		t.Fatal("empty frame list must error")
	}
	if _, err := SelectRegions(frames, 0); err == nil {
		t.Fatal("k=0 must error")
	}
}

// TestReconstruct checks the weighted estimate math and error paths.
func TestReconstruct(t *testing.T) {
	regions := []Region{
		{Frame: 1, Weight: 0.75, Count: 15},
		{Frame: 12, Weight: 0.25, Count: 5},
	}
	cycles := [][]uint64{{1000, 1200}, {9000}}
	est, err := Reconstruct(20, regions, cycles)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.75*1100 + 0.25*9000
	if math.Abs(est.MeanFrameCycles-wantMean) > 1e-9 {
		t.Fatalf("mean frame cycles %v, want %v", est.MeanFrameCycles, wantMean)
	}
	if est.TotalCycles != uint64(wantMean*20+0.5) {
		t.Fatalf("total cycles %d, want %d", est.TotalCycles, uint64(wantMean*20+0.5))
	}
	if len(est.Regions) != 2 || est.Regions[1].MeanCycles != 9000 {
		t.Fatalf("per-region estimates wrong: %+v", est.Regions)
	}

	if _, err := Reconstruct(0, regions, cycles); err == nil {
		t.Fatal("totalFrames=0 must error")
	}
	if _, err := Reconstruct(20, regions, cycles[:1]); err == nil {
		t.Fatal("mismatched series must error")
	}
	if _, err := Reconstruct(20, regions, [][]uint64{{1000}, {}}); err == nil {
		t.Fatal("empty region measurement must error")
	}
}
