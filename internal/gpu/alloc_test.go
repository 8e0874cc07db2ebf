package gpu

import (
	"runtime"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/mathx"
	"emerald/internal/raster"
	"emerald/internal/shader"
)

// saxpyRig is the Table 7 standalone system with a 32k-element SAXPY
// set up in memory: the steady state of bench's gpgpu_stream.
func saxpyRig() (*Standalone, Kernel) {
	s := DefaultStandalone(nil)
	const n = 32 * 1024
	const x, y, params = 0x10_0000, 0x20_0000, 0x50_0000
	m := s.Mem()
	for i := uint64(0); i < n; i++ {
		m.WriteF32(x+i*4, float32(i%16))
		m.WriteF32(y+i*4, 1)
	}
	m.WriteU32(params, x)
	m.WriteU32(params+4, y)
	m.WriteF32(params+8, 2)
	m.WriteU32(params+12, n)
	return s, Kernel{Prog: shader.KernelSAXPY, Blocks: n / 256, ThreadsPerBlock: 256, ParamBase: params}
}

// saxpyLaunchBudget is what one warm SAXPY launch may allocate: kernel
// bookkeeping only — the kernelState and slack for the run loop. Every
// request, MSHR, memOp, warp, queue slot and event behind the 2048
// loads and 1024 stores of the launch is recycled, and so is the
// kernelEnv of each of its 128 thread blocks.
const saxpyLaunchBudget = 1 + 16

// TestWarmKernelLaunchAllocatesOnlyBookkeeping is the system-level
// allocation gate of the memory request path: after three warm-up
// launches, a SAXPY launch stays inside a fixed object budget. Best of
// five under GOMAXPROCS(1), as simt.TestSteadyStateTickDoesNotAllocate
// does: a leak shows in every launch, a runtime goroutine's allocation
// in one.
func TestWarmKernelLaunchAllocatesOnlyBookkeeping(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, k := saxpyRig()
	launch := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.RunKernel(k, 50_000_000); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 3; i++ {
		launch()
	}
	best := launch()
	for i := 0; i < 4; i++ {
		best = min(best, launch())
	}
	if best > saxpyLaunchBudget {
		t.Fatalf("a warm SAXPY launch allocated %d objects, budget %d", best, saxpyLaunchBudget)
	}
}

// sceneRig builds the Table 7 standalone system with a Case Study II
// workload's mesh, texture and light in memory, and returns its frame:
// the draw gl.LoadScene and DrawMesh would issue at bench's gpu_frag
// size, i.e. the GPU's share of a gpu_frag frame without the GL layer.
func sceneRig(tb testing.TB, workload int) (frame func(i int)) {
	tb.Helper()
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		tb.Fatal(err)
	}
	const vb, uni, tex, color, depth = 0x1000_0000, 0x2000_0000, 0x2100_0000, 0x3000_0000, 0x3100_0000
	const w, h = 160, 120
	s := DefaultStandalone(nil)
	m := s.Mem()
	for i := range scene.Mesh.Positions {
		for j, f := range scene.Mesh.Vertex(i) {
			m.WriteF32(vb+uint64(i*geom.VertexStrideBytes+j*4), f)
		}
	}
	m.Write(tex, scene.Texture.Pixels)
	light := mathx.V3(0.4, 0.5, 0.8).Normalize()
	for i, f := range []float32{light.X, light.Y, light.Z} {
		m.WriteF32(uni+64+uint64(i*4), f)
	}
	fs := shader.FSTexturedEarlyZ
	if scene.Translucent {
		fs = shader.FSTexturedBlend
		m.WriteF32(uni+80, 0.6)
	}
	call := &DrawCall{
		VS: shader.VSTransform, FS: fs,
		VertexBase: vb, VertexStride: geom.VertexStrideBytes,
		AttrOffsets: [][2]uint32{{0, 3}, {12, 3}, {24, 2}},
		Indices:     scene.Mesh.Indices,
		Mode:        raster.Triangles,
		UniformBase: uni,
		Textures:    []TextureBinding{{Base: tex, Width: scene.Texture.Width, Height: scene.Texture.Height}},
		Color:       gfx.Surface{Base: color, Width: w, Height: h},
		Depth:       gfx.Surface{Base: depth, Width: w, Height: h},
		DepthTest:   true,
		DepthWrite:  !scene.Translucent,
		Blend:       scene.Translucent,
		CullBack:    true,
		Viewport:    raster.Viewport{Width: w, Height: h},
	}
	return func(i int) {
		call.Color.ClearColor(m, 0xFF101020)
		call.Depth.ClearDepth(m, 1)
		s.GPU.ClearHiZ()
		for k, f := range scene.MVP(i, float32(w)/h) {
			m.WriteF32(uni+uint64(k*4), f)
		}
		if _, err := renderDraw(s, call, 50_000_000); err != nil {
			tb.Fatal(err)
		}
	}
}

// warmFrameBudget is what one warm frame may allocate: the drawState and
// the two row buffers of the surface clears, plus slack for the run
// loop. Every batch, vertex environment, setup triangle, VPO delivery,
// raster tile, TC tile, tile task and fragment warp of the frame is
// reused from the frames before it.
const warmFrameBudget = 3 + 16

// TestWarmFrameAllocatesOnlyBookkeeping is the allocation gate of the
// draw path, as TestWarmKernelLaunchAllocatesOnlyBookkeeping is of the
// memory request path: after ten warm-up frames, a W3 and a W1 frame
// stay inside a fixed object budget. Best of five under GOMAXPROCS(1).
// The orbiting camera keeps raising the free lists' high-water marks
// for the first few frames; after three a frame still allocates ~12
// objects, after twenty exactly the bookkeeping.
func TestWarmFrameAllocatesOnlyBookkeeping(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []int{geom.W3Cube, geom.W1Sibenik} {
		frame := sceneRig(t, w)
		n := 0
		measure := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			frame(n)
			runtime.ReadMemStats(&after)
			n++
			return after.Mallocs - before.Mallocs
		}
		for i := 0; i < 10; i++ {
			measure()
		}
		best := measure()
		for i := 0; i < 4; i++ {
			best = min(best, measure())
		}
		t.Logf("W%d: a warm frame allocates %d objects", w, best)
		if best > warmFrameBudget {
			t.Errorf("a warm W%d frame allocated %d objects, budget %d", w, best, warmFrameBudget)
		}
	}
}

// sharedProbe has every thread read its scratchpad word before anything
// wrote it, publish what it saw, and then dirty the word.
var sharedProbe = shader.MustAssemble("shared_probe", shader.KindCompute, `
	movs r0, %tid
	movs r1, %ctaid
	movs r2, %ntid
	imad r3, r1, r2, r0
	shl  r3, r3, 2
	shl  r4, r0, 2
	ldc  r5, [0]
	iadd r5, r5, r3
	lds  r6, [r4]
	stg  [r5], r6
	ldc  r7, [4]
	sts  [r4], r7
	exit
`)

// Thread blocks reuse the kernelEnvs, scratchpads included, of blocks
// that finished before them — within a launch and across launches. A
// block must still start with zeroed shared memory.
func TestRecycledBlockSeesZeroedSharedMemory(t *testing.T) {
	s := DefaultStandalone(nil)
	const out, params = 0x10_0000, 0x50_0000
	const blocks, threads = 96, 64
	m := s.Mem()
	m.WriteU32(params, out)
	m.WriteU32(params+4, 0xDEADBEEF)
	k := Kernel{Prog: sharedProbe, Blocks: blocks, ThreadsPerBlock: threads, ParamBase: params, SharedBytes: threads * 4}
	reused := false
	for launch := 0; launch < 2; launch++ {
		if _, err := s.RunKernel(k, 10_000_000); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < blocks*threads; i++ {
			if got := m.ReadU32(out + i*4); got != 0 {
				t.Fatalf("launch %d, thread %d read %#x from a fresh block's shared memory", launch, i, got)
			}
			m.WriteU32(out+i*4, 0xFFFFFFFF)
		}
		for _, cl := range s.GPU.clusters {
			for _, env := range cl.freeEnvs {
				reused = reused || env.shared[0] != 0
			}
		}
	}
	if !reused {
		t.Fatal("no recycled scratchpad holds a previous block's data: the test exercised no reuse")
	}
	// A smaller block reusing a larger scratchpad sees only its own size.
	k.SharedBytes = 16
	k.ThreadsPerBlock = 4
	if _, err := s.RunKernel(k, 10_000_000); err != nil {
		t.Fatal(err)
	}
	for _, cl := range s.GPU.clusters {
		for _, env := range cl.freeEnvs {
			if len(env.shared) != 16 {
				t.Fatalf("recycled env exposes %d scratchpad bytes to a 16-byte block", len(env.shared))
			}
		}
	}
}

// BenchmarkSAXPYWarm is the launch above as a benchmark, for profiling
// the steady-state request path (`-cpuprofile`, `-memprofile`).
func BenchmarkSAXPYWarm(b *testing.B) {
	s, k := saxpyRig()
	for i := 0; i < 3; i++ {
		s.RunKernel(k, 50_000_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunKernel(k, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
