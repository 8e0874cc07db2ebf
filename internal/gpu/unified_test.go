package gpu

import (
	"testing"

	"emerald/internal/shader"
)

// TestBilinearFiltering checks both the functional blend and the extra
// L1T traffic of the 2x2 footprint.
func TestBilinearFiltering(t *testing.T) {
	render := func(bilinear bool) (uint32, int64) {
		s := testStandalone()
		const vp = 32
		clearTargets(s, vp, 0)
		uploadIdentityUniforms(s, [4]float32{0, 0, 1, 0}, 1)
		idx := uploadQuad(s, 0)
		call := quadCall(s, idx, shader.FSTexturedEarlyZ, vp)
		// 2x2 black/white checker texture: bilinear samples mid-gray
		// between texels, nearest never does.
		s.Mem().WriteU32(tTex+0, 0xFF000000)
		s.Mem().WriteU32(tTex+4, 0xFFFFFFFF)
		s.Mem().WriteU32(tTex+8, 0xFFFFFFFF)
		s.Mem().WriteU32(tTex+12, 0xFF000000)
		call.Textures = []TextureBinding{{Base: tTex, Width: 2, Height: 2, Bilinear: bilinear}}
		if _, err := renderDraw(s, call, 5_000_000); err != nil {
			t.Fatal(err)
		}
		var l1t int64
		s.Reg.Each(func(n string, v int64) {
			if len(n) > 4 && n[len(n)-11:] == ".l1t.misses" {
				l1t += v
			}
		})
		// Probe a pixel between texel centers.
		return call.Color.ReadPixel(s.Mem(), 8, 16), l1t
	}
	nearPix, _ := render(false)
	biPix, _ := render(true)
	nr := nearPix & 0xFF
	br := biPix & 0xFF
	if nr != 0 && nr != 255 {
		t.Fatalf("nearest sampled %d, want pure black/white", nr)
	}
	if br == 0 || br == 255 {
		t.Fatalf("bilinear sampled %d, want interpolated gray", br)
	}
}

// TestGraphicsAndComputeConcurrent runs a draw call and a kernel on the
// GPU at the same time — the unified model's defining capability — and
// verifies both complete correctly.
func TestGraphicsAndComputeConcurrent(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	idx := uploadQuad(s, 0)
	call := quadCall(s, idx, shader.FSFlat, vp)

	const n = 512
	x, y, params := uint64(0x100000), uint64(0x200000), uint64(0x300000)
	for i := 0; i < n; i++ {
		s.Mem().WriteF32(x+uint64(i*4), float32(i))
		s.Mem().WriteF32(y+uint64(i*4), 1)
	}
	s.Mem().WriteU32(params+0, uint32(x))
	s.Mem().WriteU32(params+4, uint32(y))
	s.Mem().WriteF32(params+8, 3.0)
	s.Mem().WriteU32(params+12, n)

	if err := s.GPU.SubmitDraw(call, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.GPU.LaunchKernel(Kernel{
		Prog: shader.KernelSAXPY, Blocks: 4, ThreadsPerBlock: 128, ParamBase: params,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(10_000_000); err != nil {
		t.Fatal(err)
	}
	// Graphics result.
	red := shader.PackRGBA8(1, 0, 0, 1)
	if got := call.Color.ReadPixel(s.Mem(), 16, 16); got != red {
		t.Fatalf("draw under concurrency = %#x, want red", got)
	}
	// Compute result.
	for i := 0; i < n; i++ {
		want := float32(3*i) + 1
		if got := s.Mem().ReadF32(y + uint64(i*4)); got != want {
			t.Fatalf("kernel under concurrency: y[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestTriangleStripAndFanDraws exercises the non-list topologies through
// the full pipeline (overlapped vertex warps, §3.3.3).
func TestTriangleStripAndFanDraws(t *testing.T) {
	for _, mode := range []struct {
		name string
		set  func(*DrawCall)
	}{
		{"strip", func(c *DrawCall) {
			c.Mode = 1 // raster.TriangleStrip
			c.Indices = []uint32{0, 1, 3, 2}
		}},
		{"fan", func(c *DrawCall) {
			c.Mode = 2 // raster.TriangleFan
			c.Indices = []uint32{0, 1, 2, 3}
		}},
	} {
		s := testStandalone()
		const vp = 32
		clearTargets(s, vp, 0)
		uploadIdentityUniforms(s, [4]float32{0, 1, 0, 1}, 1)
		uploadQuad(s, 0)
		call := quadCall(s, []uint32{0, 1, 2}, shader.FSFlat, vp)
		mode.set(call)
		if _, err := renderDraw(s, call, 5_000_000); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		green := shader.PackRGBA8(0, 1, 0, 1)
		if got := call.Color.ReadPixel(s.Mem(), 16, 16); got != green {
			t.Fatalf("%s quad center = %#x, want green", mode.name, got)
		}
	}
}

// TestMultiDrawFrame runs two draws back to back against the same
// surfaces (depth carried across draws), as real frames do.
func TestMultiDrawFrame(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0)
	// Draw near red quad, then far green quad, both queued before any
	// ticking: the GPU must serialize them in submission order.
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	idxNear := uploadQuad(s, -0.5)
	callNear := quadCall(s, idxNear, shader.FSFlat, vp)
	if err := s.GPU.SubmitDraw(callNear, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	// Re-upload vertex data (same buffer) and uniforms for the far quad.
	uploadIdentityUniforms(s, [4]float32{0, 1, 0, 1}, 1)
	idxFar := uploadQuad(s, 0.5)
	callFar := quadCall(s, idxFar, shader.FSFlat, vp)
	if err := s.GPU.SubmitDraw(callFar, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	red := shader.PackRGBA8(1, 0, 0, 1)
	if got := callFar.Color.ReadPixel(s.Mem(), 16, 16); got != red {
		t.Fatalf("multi-draw depth = %#x, want red (near wins)", got)
	}
}
