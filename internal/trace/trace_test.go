package trace

import (
	"bytes"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
)

// newSystem builds a standalone GPU + GL context, optionally recording.
func newSystem(t *testing.T, rec gl.Recorder) (*gpu.Standalone, *gl.Context) {
	t.Helper()
	s := gpu.NewStandalone(gpu.CaseStudyIConfig(), dram.Config{
		Geometry: dram.LPDDR3Geometry(2),
		Timing:   dram.LPDDR3Timing(1333),
	}, nil)
	ctx := gl.NewContext(s.Mem(), gl.HeapBase, 64<<20)
	ctx.Submit = func(call *gpu.DrawCall) error { return s.GPU.SubmitDraw(call, nil) }
	ctx.OnClearDepth = s.GPU.ClearHiZ
	ctx.Recorder = rec
	return s, ctx
}

// renderScene renders two frames of the cube workload via ctx.
func renderScene(t *testing.T, s *gpu.Standalone, ctx *gl.Context) {
	t.Helper()
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Viewport(48, 48); err != nil {
		t.Fatal(err)
	}
	h, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < 2; frame++ {
		ctx.Clear(0xFF000000, true)
		ctx.SetMVP(scene.MVP(frame, 1))
		if err := ctx.DrawMesh(h); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunUntilIdle(20_000_000); err != nil {
			t.Fatal(err)
		}
	}
}

func framebufferHash(s *gpu.Standalone, ctx *gl.Context) []uint32 {
	fb := ctx.ColorSurface()
	out := make([]uint32, 0, fb.Width*fb.Height)
	for y := 0; y < fb.Height; y++ {
		for x := 0; x < fb.Width; x++ {
			out = append(out, fb.ReadPixel(s.Mem(), x, y))
		}
	}
	return out
}

func TestRecordReplayIdenticalFramebuffer(t *testing.T) {
	tr := &Trace{}
	s1, ctx1 := newSystem(t, tr)
	renderScene(t, s1, ctx1)
	want := framebufferHash(s1, ctx1)
	if tr.DrawCount() != 2 {
		t.Fatalf("recorded %d draws, want 2", tr.DrawCount())
	}

	// Round trip the binary format.
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Fatalf("loaded %d ops, want %d", loaded.Len(), tr.Len())
	}

	// Replay into a fresh system.
	s2, ctx2 := newSystem(t, nil)
	if err := Replay(loaded, ctx2, ReplayAll()); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunUntilIdle(40_000_000); err != nil {
		t.Fatal(err)
	}
	got := framebufferHash(s2, ctx2)
	if len(got) != len(want) {
		t.Fatalf("framebuffer sizes differ")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d differs: %#x vs %#x", i, got[i], want[i])
		}
	}
}

func TestReplayRegionOfInterest(t *testing.T) {
	tr := &Trace{}
	s1, ctx1 := newSystem(t, tr)
	renderScene(t, s1, ctx1)

	// Replay only the second draw (frame 1): the framebuffer should end
	// up identical (the second frame clears and redraws fully).
	s2, ctx2 := newSystem(t, nil)
	if err := Replay(tr, ctx2, ReplayOptions{FirstDraw: 1, LastDraw: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunUntilIdle(40_000_000); err != nil {
		t.Fatal(err)
	}
	if s2.GPU.FragsShaded() == 0 {
		t.Fatal("region-of-interest replay rendered nothing")
	}
	// Fewer fragments than the full replay (one draw instead of two).
	if s2.GPU.FragsShaded() >= s1.GPU.FragsShaded() {
		t.Fatalf("ROI replay shaded %d frags, full run %d",
			s2.GPU.FragsShaded(), s1.GPU.FragsShaded())
	}
}

func TestReplayUnknownShaderFails(t *testing.T) {
	tr := &Trace{}
	tr.Op("UseProgram", nil, []byte("nope\x00nada"))
	_, ctx := newSystem(t, nil)
	if err := Replay(tr, ctx, ReplayAll()); err == nil {
		t.Fatal("unknown shader names must fail replay")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	tr := &Trace{}
	s1, ctx1 := newSystem(t, tr)
	renderScene(t, s1, ctx1)

	cp := NewCheckpoint(tr, s1.Mem(), 1234, 2)
	raw, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cycle != 1234 || loaded.Frame != 2 {
		t.Fatal("checkpoint metadata lost")
	}
	// Restore memory into a fresh memory and compare the framebuffer
	// region byte for byte.
	m2 := mem.NewMemory()
	loaded.RestoreMemory(m2)
	fb := ctx1.ColorSurface()
	for y := 0; y < fb.Height; y += 7 {
		for x := 0; x < fb.Width; x += 5 {
			if m2.ReadU32(fb.Addr(x, y)) != fb.ReadPixel(s1.Mem(), x, y) {
				t.Fatalf("restored memory differs at (%d,%d)", x, y)
			}
		}
	}
	if loaded.Trace.DrawCount() != 2 {
		t.Fatal("checkpoint trace lost draws")
	}
}
