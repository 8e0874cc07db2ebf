package gl

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gpu"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
)

// system builds a standalone GPU and a GL context wired to it.
func system(t *testing.T) (*gpu.Standalone, *Context) {
	t.Helper()
	s := gpu.NewStandalone(gpu.CaseStudyIConfig(), dram.Config{
		Geometry: dram.LPDDR3Geometry(2),
		Timing:   dram.LPDDR3Timing(1333),
	}, nil)
	ctx := NewContext(s.Mem(), HeapBase, 64<<20)
	ctx.Submit = func(call *gpu.DrawCall) error {
		return s.GPU.SubmitDraw(call, nil)
	}
	ctx.OnClearDepth = s.GPU.ClearHiZ
	return s, ctx
}

func TestContextObjectLifecycle(t *testing.T) {
	_, ctx := system(t)
	b := ctx.GenBuffer()
	if err := ctx.BufferData(b, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.BufferData(999, nil); err == nil {
		t.Fatal("unknown buffer accepted")
	}
	tex := ctx.GenTexture()
	if err := ctx.TexImage2D(tex, 2, 2, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.TexImage2D(tex, 2, 2, make([]byte, 3)); err == nil {
		t.Fatal("short texture data accepted")
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		t.Fatal(err)
	}
	if err := ctx.BindTexture(0, 12345); err == nil {
		t.Fatal("unknown texture bound")
	}
}

func TestDrawRequiresState(t *testing.T) {
	_, ctx := system(t)
	if err := ctx.DrawElements(raster.Triangles, []uint32{0, 1, 2}); err == nil {
		t.Fatal("draw with no program must fail")
	}
	if err := ctx.UseProgram(shader.VSTransform, shader.FSFlat); err != nil {
		t.Fatal(err)
	}
	if err := ctx.DrawElements(raster.Triangles, []uint32{0, 1, 2}); err == nil {
		t.Fatal("draw with no array buffer must fail")
	}
	if err := ctx.UseProgram(shader.FSFlat, shader.VSTransform); err == nil {
		t.Fatal("swapped shader kinds accepted")
	}
}

func TestEndToEndTriangle(t *testing.T) {
	s, ctx := system(t)
	if err := ctx.Viewport(48, 48); err != nil {
		t.Fatal(err)
	}
	ctx.Clear(0xFF000000, true)
	if err := ctx.UseProgram(shader.VSTransform, shader.FSFlat); err != nil {
		t.Fatal(err)
	}
	ctx.SetFlatColor(0, 0, 1, 1)

	tri := &geom.Mesh{
		Positions: []mathx.Vec3{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: 0, Y: 1}},
		Normals:   []mathx.Vec3{{Z: 1}, {Z: 1}, {Z: 1}},
		UVs:       []mathx.Vec2{{}, {X: 1}, {X: 0.5, Y: 1}},
		Indices:   []uint32{0, 1, 2},
	}
	h, err := ctx.UploadMesh(tri)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.DrawMesh(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(3_000_000); err != nil {
		t.Fatal(err)
	}
	blue := shader.PackRGBA8(0, 0, 1, 1)
	if got := ctx.ColorSurface().ReadPixel(s.Mem(), 24, 30); got != blue {
		t.Fatalf("triangle interior = %#x, want %#x", got, blue)
	}
	// Outside the triangle: still the clear color.
	if got := ctx.ColorSurface().ReadPixel(s.Mem(), 2, 2); got != 0xFF000000 {
		t.Fatalf("background = %#x, want clear color", got)
	}
}

func TestTexturedMeshThroughGL(t *testing.T) {
	s, ctx := system(t)
	if err := ctx.Viewport(32, 32); err != nil {
		t.Fatal(err)
	}
	ctx.Clear(0, true)
	if err := ctx.UseProgram(shader.VSTransform, shader.FSTexturedEarlyZ); err != nil {
		t.Fatal(err)
	}
	ctx.SetLight(mathx.V3(0, 0, 1))
	tex, err := ctx.UploadTexture(geom.Checker(16, 16, 8, [4]byte{255, 0, 0, 255}, [4]byte{0, 255, 0, 255}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		t.Fatal(err)
	}
	quad := &geom.Mesh{
		Positions: []mathx.Vec3{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: 1, Y: 1}, {X: -1, Y: 1}},
		Normals:   []mathx.Vec3{{Z: 1}, {Z: 1}, {Z: 1}, {Z: 1}},
		UVs:       []mathx.Vec2{{}, {X: 1}, {X: 1, Y: 1}, {Y: 1}},
		Indices:   []uint32{0, 1, 2, 0, 2, 3},
	}
	h, err := ctx.UploadMesh(quad)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.DrawMesh(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(3_000_000); err != nil {
		t.Fatal(err)
	}
	// The quad maps the checker across the screen; opposite corners land
	// on different colors.
	a := ctx.ColorSurface().ReadPixel(s.Mem(), 4, 4)
	b := ctx.ColorSurface().ReadPixel(s.Mem(), 20, 4)
	if a == b {
		t.Fatalf("checker not visible: %#x == %#x", a, b)
	}
}

func TestBlendStateFlowsToDraw(t *testing.T) {
	s, ctx := system(t)
	if err := ctx.Viewport(16, 16); err != nil {
		t.Fatal(err)
	}
	ctx.Clear(0, true)
	ctx.Enable(Blend)
	ctx.DepthMask(false)
	ctx.SetAlpha(0.5)
	if err := ctx.UseProgram(shader.VSTransform, shader.FSTexturedBlend); err != nil {
		t.Fatal(err)
	}
	tex, _ := ctx.UploadTexture(geom.Checker(4, 4, 4, [4]byte{255, 255, 255, 255}, [4]byte{255, 255, 255, 255}))
	ctx.BindTexture(0, tex)
	quad := &geom.Mesh{
		Positions: []mathx.Vec3{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: 1, Y: 1}, {X: -1, Y: 1}},
		Normals:   []mathx.Vec3{{Z: 1}, {Z: 1}, {Z: 1}, {Z: 1}},
		UVs:       []mathx.Vec2{{}, {X: 1}, {X: 1, Y: 1}, {Y: 1}},
		Indices:   []uint32{0, 1, 2, 0, 2, 3},
	}
	h, _ := ctx.UploadMesh(quad)
	if err := ctx.DrawMesh(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(3_000_000); err != nil {
		t.Fatal(err)
	}
	r, _, _, _ := shader.UnpackRGBA8(ctx.ColorSurface().ReadPixel(s.Mem(), 8, 8))
	if r < 0.45 || r > 0.55 {
		t.Fatalf("blended value = %v, want ~0.5", r)
	}
}

func TestSceneWorkloadRenders(t *testing.T) {
	// Full workload path: geom scene -> GL -> GPU, one frame of W3.
	s, ctx := system(t)
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Viewport(64, 48); err != nil {
		t.Fatal(err)
	}
	ctx.Clear(0xFF202020, true)
	h, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetMVP(scene.MVP(0, 64.0/48.0))
	if err := ctx.DrawMesh(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(10_000_000); err != nil {
		t.Fatal(err)
	}
	if s.GPU.FragsShaded() == 0 {
		t.Fatal("scene produced no fragments")
	}
	// Center of screen should be covered by the cube (not clear color).
	if got := ctx.ColorSurface().ReadPixel(s.Mem(), 32, 24); got == 0xFF202020 {
		t.Fatal("cube not visible at screen center")
	}
}

// TestLoadSceneLayout pins LoadScene to the hand-spelled sequence it
// replaced — mesh, texture, bind, blend state, program, light — on a
// fresh context: same recorded ops, same heap addresses, same bound
// state, for an opaque and a translucent scene. Heap addresses decide
// cycle counts, so a reordered copy of this block is a different
// experiment.
func TestLoadSceneLayout(t *testing.T) {
	for _, w := range []int{geom.W3Cube, geom.W5SuzanneT} {
		scene, err := geom.DFSLWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() (*Context, *captureRecorder) {
			rec := &captureRecorder{}
			c := NewContext(mem.NewMemory(), HeapBase, HeapSize)
			c.Recorder = rec
			if err := c.Viewport(64, 48); err != nil {
				t.Fatal(err)
			}
			return c, rec
		}

		hand, want := fresh()
		wantMesh, err := hand.UploadMesh(scene.Mesh)
		if err != nil {
			t.Fatal(err)
		}
		tex, err := hand.UploadTexture(scene.Texture)
		if err != nil {
			t.Fatal(err)
		}
		if err := hand.BindTexture(0, tex); err != nil {
			t.Fatal(err)
		}
		fs := shader.FSTexturedEarlyZ
		if scene.Translucent {
			fs = shader.FSTexturedBlend
			hand.Enable(Blend)
			hand.DepthMask(false)
			hand.SetAlpha(0.6)
		}
		if err := hand.UseProgram(shader.VSTransform, fs); err != nil {
			t.Fatal(err)
		}
		hand.SetLight(mathx.V3(0.4, 0.5, 0.8).Normalize())

		ctx, got := fresh()
		mesh, err := ctx.LoadScene(scene)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.full, want.full) {
			t.Errorf("%s: LoadScene recorded %v, the hand-spelled block %v", scene.Name, got.ops, want.ops)
		}
		if !reflect.DeepEqual(mesh, wantMesh) {
			t.Errorf("%s: mesh handle differs", scene.Name)
		}
		if g, w := ctx.buffers[mesh.Buffer], hand.buffers[wantMesh.Buffer]; g != w || g.size == 0 {
			t.Errorf("%s: vertex buffer at %+v, want %+v", scene.Name, g, w)
		}
		if g, w := ctx.textures[ctx.texUnits[0]], hand.textures[hand.texUnits[0]]; g != w || g.width == 0 {
			t.Errorf("%s: texture at %+v, want %+v", scene.Name, g, w)
		}
		if ctx.heap != hand.heap {
			t.Errorf("%s: heap cursor %#x, want %#x", scene.Name, ctx.heap, hand.heap)
		}
		if ctx.fs != fs || ctx.caps[Blend] != scene.Translucent || ctx.depthWrite == scene.Translucent {
			t.Errorf("%s: bound fs=%s blend=%v depthWrite=%v", scene.Name, ctx.fs.Name, ctx.caps[Blend], ctx.depthWrite)
		}
		gu, wu := make([]byte, uniformBytes), make([]byte, uniformBytes)
		ctx.Mem.Read(ctx.uniformBase, gu)
		hand.Mem.Read(hand.uniformBase, wu)
		if !bytes.Equal(gu, wu) {
			t.Errorf("%s: uniform bank differs", scene.Name)
		}
	}
}

func TestRecorderSeesOps(t *testing.T) {
	_, ctx := system(t)
	rec := &captureRecorder{}
	ctx.Recorder = rec
	if err := ctx.Viewport(8, 8); err != nil {
		t.Fatal(err)
	}
	ctx.Enable(Blend)
	b := ctx.GenBuffer()
	ctx.BufferData(b, []byte{1, 2})
	var names []string
	for _, op := range rec.ops {
		names = append(names, op)
	}
	want := []string{"Viewport", "Enable", "GenBuffer", "BufferData"}
	if len(names) != len(want) {
		t.Fatalf("ops = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("op %d = %s, want %s", i, names[i], want[i])
		}
	}
}

// captureRecorder keeps each op's name, and the whole op as one string.
type captureRecorder struct{ ops, full []string }

func (r *captureRecorder) Op(name string, args []uint32, blob []byte) {
	r.ops = append(r.ops, name)
	r.full = append(r.full, fmt.Sprintf("%s %v %x", name, args, blob))
}
