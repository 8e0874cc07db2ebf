package gpu

import (
	"math"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/gfx"
	"emerald/internal/mathx"
	"emerald/internal/raster"
	"emerald/internal/shader"
	"emerald/internal/simt"
)

// Test address map.
const (
	tVB      = 0x1000_0000
	tUniform = 0x2000_0000
	tTex     = 0x2100_0000
	tColor   = 0x3000_0000
	tDepth   = 0x3100_0000
)

func testStandalone() *Standalone {
	cfg := CaseStudyIConfig() // small GPU keeps tests fast
	return NewStandalone(cfg, dram.Config{
		Geometry: dram.LPDDR3Geometry(2),
		Timing:   dram.LPDDR3Timing(1333),
	}, nil)
}

// uploadQuad writes a unit quad (two triangles) at depth z into the
// vertex buffer and returns its indices.
func uploadQuad(s *Standalone, z float32) []uint32 {
	verts := [][8]float32{
		// x, y, z, nx, ny, nz, u, v
		{-1, -1, z, 0, 0, 1, 0, 0},
		{1, -1, z, 0, 0, 1, 1, 0},
		{1, 1, z, 0, 0, 1, 1, 1},
		{-1, 1, z, 0, 0, 1, 0, 1},
	}
	for i, v := range verts {
		for j, f := range v {
			s.Mem().WriteF32(tVB+uint64(i*32+j*4), f)
		}
	}
	return []uint32{0, 1, 2, 0, 2, 3}
}

// uploadIdentityUniforms writes an identity MVP and an RGBA "light"
// vector (used as flat color by FSFlat).
func uploadIdentityUniforms(s *Standalone, colr [4]float32, alpha float32) {
	id := mathx.Identity()
	for i, f := range id {
		s.Mem().WriteF32(tUniform+uint64(i*4), f)
	}
	for i, f := range colr {
		s.Mem().WriteF32(tUniform+64+uint64(i*4), f)
	}
	s.Mem().WriteF32(tUniform+80, alpha)
}

// uploadWhiteTexture writes an 8x8 white texture.
func uploadWhiteTexture(s *Standalone) TextureBinding {
	for i := 0; i < 8*8; i++ {
		s.Mem().WriteU32(tTex+uint64(i*4), 0xFFFFFFFF)
	}
	return TextureBinding{Base: tTex, Width: 8, Height: 8}
}

func quadCall(s *Standalone, indices []uint32, fs *shader.Program, vp int) *DrawCall {
	color := gfx.Surface{Base: tColor, Width: vp, Height: vp}
	depth := gfx.Surface{Base: tDepth, Width: vp, Height: vp}
	return &DrawCall{
		VS:           shader.VSTransform,
		FS:           fs,
		VertexBase:   tVB,
		VertexStride: 32,
		AttrOffsets:  [][2]uint32{{0, 3}, {12, 3}, {24, 2}},
		Indices:      indices,
		Mode:         raster.Triangles,
		UniformBase:  tUniform,
		Textures:     []TextureBinding{uploadWhiteTexture(s)},
		Color:        color,
		Depth:        depth,
		DepthTest:    true,
		DepthWrite:   true,
		CullBack:     true,
		Viewport:     raster.Viewport{Width: vp, Height: vp},
	}
}

func clearTargets(s *Standalone, vp int, clearColor uint32) {
	gfx.Surface{Base: tColor, Width: vp, Height: vp}.ClearColor(s.Mem(), clearColor)
	gfx.Surface{Base: tDepth, Width: vp, Height: vp}.ClearDepth(s.Mem(), 1.0)
	s.GPU.ClearHiZ()
}

func TestFullScreenQuadFlat(t *testing.T) {
	s := testStandalone()
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	call := quadCall(s, idx, shader.FSFlat, vp)
	cycles, err := renderDraw(s, call, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("draw consumed no cycles")
	}
	red := shader.PackRGBA8(1, 0, 0, 1)
	for _, p := range [][2]int{{0, 0}, {31, 31}, {63, 63}, {5, 60}, {60, 5}} {
		if got := call.Color.ReadPixel(s.Mem(), p[0], p[1]); got != red {
			t.Fatalf("pixel %v = %#x, want %#x", p, got, red)
		}
	}
	// Depth buffer was written: z = 0 ndc -> 0.5 depth.
	if d := s.Mem().ReadF32(call.Depth.Addr(32, 32)); math.Abs(float64(d)-0.5) > 1e-5 {
		t.Fatalf("depth = %v, want 0.5", d)
	}
	if s.GPU.FragsShaded() != vp*vp {
		t.Fatalf("fragments shaded = %d, want %d", s.GPU.FragsShaded(), vp*vp)
	}
}

func TestDepthOcclusion(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)

	// Near quad (z=-0.5 -> depth 0.25) red.
	idx := uploadQuad(s, -0.5)
	if _, err := renderDraw(s, quadCall(s, idx, shader.FSFlat, vp), 3_000_000); err != nil {
		t.Fatal(err)
	}
	// Far quad (z=0.5 -> depth 0.75) green: must lose everywhere.
	uploadIdentityUniforms(s, [4]float32{0, 1, 0, 1}, 1)
	idx = uploadQuad(s, 0.5)
	if _, err := renderDraw(s, quadCall(s, idx, shader.FSFlat, vp), 3_000_000); err != nil {
		t.Fatal(err)
	}
	red := shader.PackRGBA8(1, 0, 0, 1)
	fb := gfx.Surface{Base: tColor, Width: vp, Height: vp}
	if got := fb.ReadPixel(s.Mem(), 16, 16); got != red {
		t.Fatalf("center = %#x, want red (occluded far quad drew over?)", got)
	}
	// Hi-Z must have culled far-quad tiles (the near quad fully covered
	// the screen before the far draw began).
	if s.GPU.Reg.Value("hiz_culled_tiles") == 0 {
		t.Fatal("expected Hi-Z culling on the occluded draw")
	}
}

func TestDepthReversePainters(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0)
	// Far green first, then near red: red must win (normal painter's).
	uploadIdentityUniforms(s, [4]float32{0, 1, 0, 1}, 1)
	idx := uploadQuad(s, 0.5)
	if _, err := renderDraw(s, quadCall(s, idx, shader.FSFlat, vp), 3_000_000); err != nil {
		t.Fatal(err)
	}
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	idx = uploadQuad(s, -0.5)
	if _, err := renderDraw(s, quadCall(s, idx, shader.FSFlat, vp), 3_000_000); err != nil {
		t.Fatal(err)
	}
	red := shader.PackRGBA8(1, 0, 0, 1)
	fb := gfx.Surface{Base: tColor, Width: vp, Height: vp}
	if got := fb.ReadPixel(s.Mem(), 16, 16); got != red {
		t.Fatalf("center = %#x, want red", got)
	}
}

func TestBlending(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0) // black background
	uploadIdentityUniforms(s, [4]float32{1, 1, 1, 1}, 0.5)
	idx := uploadQuad(s, 0)
	call := quadCall(s, idx, shader.FSTexturedBlend, vp)
	call.Blend = true
	call.DepthWrite = false
	if _, err := renderDraw(s, call, 3_000_000); err != nil {
		t.Fatal(err)
	}
	// White texture at alpha 0.5 over black: ~mid gray.
	got := call.Color.ReadPixel(s.Mem(), 10, 10)
	r, g, b, _ := shader.UnpackRGBA8(got)
	for _, c := range []float32{r, g, b} {
		if c < 0.45 || c > 0.55 {
			t.Fatalf("blend result = %#x (r=%v), want ~0.5 gray", got, r)
		}
	}
}

func TestTexturedLighting(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0)
	// Light along +z, quad normal +z: |dot| = 1 -> full texture color.
	uploadIdentityUniforms(s, [4]float32{0, 0, 1, 0}, 1)
	idx := uploadQuad(s, 0)
	call := quadCall(s, idx, shader.FSTexturedEarlyZ, vp)
	if _, err := renderDraw(s, call, 3_000_000); err != nil {
		t.Fatal(err)
	}
	got := call.Color.ReadPixel(s.Mem(), 16, 16)
	r, _, _, _ := shader.UnpackRGBA8(got)
	if r < 0.95 {
		t.Fatalf("lit white texel = %#x, want ~white", got)
	}
}

func TestBackfaceCullSkipsEverything(t *testing.T) {
	s := testStandalone()
	const vp = 32
	clearTargets(s, vp, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	idx := uploadQuad(s, 0)
	// Reverse winding: all triangles backfacing.
	for i := 0; i+2 < len(idx); i += 3 {
		idx[i], idx[i+1] = idx[i+1], idx[i]
	}
	call := quadCall(s, idx, shader.FSFlat, vp)
	if _, err := renderDraw(s, call, 3_000_000); err != nil {
		t.Fatal(err)
	}
	if got := call.Color.ReadPixel(s.Mem(), 16, 16); got != 0 {
		t.Fatalf("backfaced quad drew %#x", got)
	}
	if s.GPU.FragsShaded() != 0 {
		t.Fatal("fragments shaded despite full cull")
	}
}

func TestSAXPYOnGPU(t *testing.T) {
	s := testStandalone()
	const n = 1024
	x, y, params := uint64(0x100000), uint64(0x200000), uint64(0x300000)
	for i := 0; i < n; i++ {
		s.Mem().WriteF32(x+uint64(i*4), float32(i))
		s.Mem().WriteF32(y+uint64(i*4), 1)
	}
	s.Mem().WriteU32(params+0, uint32(x))
	s.Mem().WriteU32(params+4, uint32(y))
	s.Mem().WriteF32(params+8, 2.0)
	s.Mem().WriteU32(params+12, n)
	cycles, err := s.RunKernel(Kernel{
		Prog: shader.KernelSAXPY, Blocks: 8, ThreadsPerBlock: 128, ParamBase: params,
	}, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("kernel free?")
	}
	for i := 0; i < n; i++ {
		want := float32(2*i) + 1
		if got := s.Mem().ReadF32(y + uint64(i*4)); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestVecAddAndReduce(t *testing.T) {
	s := testStandalone()
	const n = 256
	a, b, c, params := uint64(0x100000), uint64(0x200000), uint64(0x300000), uint64(0x400000)
	for i := 0; i < n; i++ {
		s.Mem().WriteF32(a+uint64(i*4), float32(i))
		s.Mem().WriteF32(b+uint64(i*4), float32(10*i))
	}
	s.Mem().WriteU32(params+0, uint32(a))
	s.Mem().WriteU32(params+4, uint32(b))
	s.Mem().WriteU32(params+8, uint32(c))
	s.Mem().WriteU32(params+12, n)
	if _, err := s.RunKernel(Kernel{Prog: shader.KernelVecAdd, Blocks: 4, ThreadsPerBlock: 64, ParamBase: params}, 2_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := s.Mem().ReadF32(c + uint64(i*4)); got != float32(11*i) {
			t.Fatalf("c[%d] = %v", i, got)
		}
	}
	// Atomic reduction.
	out := uint64(0x500000)
	s.Mem().WriteU32(params+4, uint32(out))
	s.Mem().WriteF32(out, 0)
	if _, err := s.RunKernel(Kernel{Prog: shader.KernelReduceAtomic, Blocks: 4, ThreadsPerBlock: 64, ParamBase: params}, 2_000_000); err != nil {
		t.Fatal(err)
	}
	want := float32(n * (n - 1) / 2)
	if got := s.Mem().ReadF32(out); got != want {
		t.Fatalf("reduction = %v, want %v", got, want)
	}
}

func TestWTChangesTimingNotResult(t *testing.T) {
	render := func(wt int) (uint64, uint32) {
		s := testStandalone()
		const vp = 64
		clearTargets(s, vp, 0)
		uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
		idx := uploadQuad(s, 0)
		s.GPU.SetWT(wt)
		call := quadCall(s, idx, shader.FSFlat, vp)
		cycles, err := renderDraw(s, call, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return cycles, call.Color.ReadPixel(s.Mem(), 40, 22)
	}
	c1, p1 := render(1)
	c4, p4 := render(4)
	if p1 != p4 {
		t.Fatalf("WT changed rendering result: %#x vs %#x", p1, p4)
	}
	if c1 == c4 {
		t.Log("note: WT sizes produced identical cycle counts (small screen)")
	}
}

func TestDFSLControllerPhases(t *testing.T) {
	d := NewDFSL(1, 4, 3) // eval 4 frames, run 3
	// Frame times: WT=2 is best.
	times := map[int]uint64{1: 100, 2: 50, 3: 80, 4: 90}
	var wts []int
	for f := 0; f < 10; f++ {
		wt := d.NextWT()
		wts = append(wts, wt)
		if d.Evaluating() {
			d.ObserveFrame(times[wt])
		} else {
			d.ObserveFrame(times[wt] + 5)
		}
	}
	// Eval phase explores 1..4, run phase uses best (2), then re-eval.
	want := []int{1, 2, 3, 4, 2, 2, 2, 1, 2, 3}
	for i := range want {
		if wts[i] != want[i] {
			t.Fatalf("frame %d WT = %d, want %d (all: %v)", i, wts[i], want[i], wts)
		}
	}
	if d.BestWT() != 2 {
		t.Fatalf("best WT = %d, want 2", d.BestWT())
	}
}

func TestDrawValidation(t *testing.T) {
	s := testStandalone()
	bad := &DrawCall{}
	if err := s.GPU.SubmitDraw(bad, nil); err == nil {
		t.Fatal("empty draw must be rejected")
	}
	if err := s.GPU.LaunchKernel(Kernel{}, nil); err == nil {
		t.Fatal("empty kernel must be rejected")
	}
	if err := s.GPU.LaunchKernel(Kernel{Prog: shader.VSTransform, Blocks: 1, ThreadsPerBlock: 32}, nil); err == nil {
		t.Fatal("non-compute kernel must be rejected")
	}
}

// TestBatchConstruction: for every index count up to 200 in every
// topology, the batches' triangles partition the draw's in order, each
// triangle's vertices sit in lanes of its batch that hold them, and no
// batch holds more than a warp.
func TestBatchConstruction(t *testing.T) {
	for _, tc := range []struct {
		mode       raster.PrimMode
		n, batches int
		tris       int
	}{
		{raster.Triangles, 93, 4, 31}, // ceil(93/30) batches
		{raster.TriangleStrip, 40, 2, 38},
		{raster.TriangleFan, 35, 2, 33},
	} {
		call := &DrawCall{Mode: tc.mode, Indices: make([]uint32, tc.n)}
		if got := batchCount(call); got != tc.batches {
			t.Fatalf("mode %d, %d indices: %d batches, want %d", tc.mode, tc.n, got, tc.batches)
		}
		if _, to := batchTris(call, tc.batches-1); to != tc.tris {
			t.Fatalf("mode %d, %d indices: %d triangles, want %d", tc.mode, tc.n, to, tc.tris)
		}
	}
	for _, mode := range []raster.PrimMode{raster.Triangles, raster.TriangleStrip, raster.TriangleFan} {
		for n := 3; n <= 200; n++ {
			call := &DrawCall{Mode: mode, Indices: make([]uint32, n)}
			next := 0
			for b := 0; b < batchCount(call); b++ {
				lanes := batchLanes(call, b)
				if lanes < 1 || lanes > simt.WarpSize {
					t.Fatalf("mode %d, %d indices, batch %d: %d lanes", mode, n, b, lanes)
				}
				from, to := batchTris(call, b)
				if from != next || to < from {
					t.Fatalf("mode %d, %d indices, batch %d: triangles [%d, %d), want from %d", mode, n, b, from, to, next)
				}
				for k := from; k < to; k++ {
					for _, p := range mode.Tri(k) {
						if lane := laneOf(call, b, p); lane < 0 || lane >= lanes || lanePos(call, b, lane) != p {
							t.Fatalf("mode %d, %d indices: triangle %d vertex %d missing from batch %d", mode, n, k, p, b)
						}
					}
				}
				next = to
			}
			want := n - 2
			if mode == raster.Triangles {
				want = n / 3
			}
			if next != want {
				t.Fatalf("mode %d, %d indices: %d triangles assigned", mode, n, next)
			}
		}
	}
}

func TestPerspectiveSceneSmoke(t *testing.T) {
	// A real perspective transform through the full pipeline: cube-ish
	// quad at an angle; just require fragments and no hang.
	s := testStandalone()
	const vp = 48
	clearTargets(s, vp, 0)
	view := mathx.LookAt(mathx.V3(0, 0, 2.5), mathx.V3(0, 0, 0), mathx.V3(0, 1, 0))
	proj := mathx.Perspective(1.0, 1, 0.1, 10)
	mvp := proj.Mul(view).Mul(mathx.RotateY(0.5))
	for i, f := range mvp {
		s.Mem().WriteF32(tUniform+uint64(i*4), f)
	}
	for i, f := range [4]float32{0, 0, 1, 0} {
		s.Mem().WriteF32(tUniform+64+uint64(i*4), f)
	}
	idx := uploadQuad(s, 0)
	call := quadCall(s, idx, shader.FSTexturedEarlyZ, vp)
	if _, err := renderDraw(s, call, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if s.GPU.FragsShaded() == 0 {
		t.Fatal("no fragments from perspective quad")
	}
	if s.GPU.FragsShaded() >= vp*vp {
		t.Fatal("rotated quad should not cover the whole screen")
	}
	if math.IsNaN(float64(s.GPU.DrawProgress())) {
		t.Fatal("progress NaN")
	}
}

// renderDraw submits one draw call and runs it to completion, returning
// the cycles from submission to retirement of all its work.
func renderDraw(s *Standalone, call *DrawCall, budget uint64) (uint64, error) {
	if err := s.GPU.SubmitDraw(call, nil); err != nil {
		return 0, err
	}
	return s.RunUntilIdle(budget)
}
