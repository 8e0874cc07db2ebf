package main

import (
	"bytes"
	"fmt"
	"math"

	"emerald"
	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/stats"
)

const (
	fragWidth, fragHeight = 160, 120
	// fragRoundFrames frames make one camera orbit, so every round
	// renders the same views and the seed only turns the starting angle.
	// The cube looks the same every quarter turn; 15 views (not 16) fall
	// on 15 different angles within that quarter, 6 degrees apart, so a
	// round's cost barely depends on where the seed starts it.
	fragRoundFrames = 15
	fragWarmFrames  = 10
	gpuBudget       = 4_000_000_000
	clearColor      = 0xFF101020
)

// fragScene is the W3 cube with the camera orbit rescaled to one turn
// per round and the start angle taken from the seed.
func fragScene(seed uint64) (*geom.Scene, error) {
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		return nil, err
	}
	phase := float32(newRNG(seed, "camera").unit() * 2 * math.Pi)
	eye := mathx.RotateY(phase).MulVec(mathx.V4(scene.Eye.X, scene.Eye.Y, scene.Eye.Z, 1))
	scene.Eye = eye.XYZ()
	scene.OrbitPerFrame = 2 * math.Pi / fragRoundFrames
	return scene, nil
}

// fragRig is one standalone Table 7 GPU with the W3 scene uploaded:
// the gpu_frag workload and the paired arms both render through it.
type fragRig struct {
	reg   *stats.Registry
	sys   *emerald.StandaloneGPU
	ctx   *emerald.GL
	scene *geom.Scene
	mesh  gl.MeshHandle
}

// bindScene issues the state and uploads a W3 frame needs on ctx.
func bindScene(ctx *gl.Context, scene *geom.Scene) (gl.MeshHandle, error) {
	ctx.Viewport(fragWidth, fragHeight)
	if err := ctx.UseProgram(emerald.VSTransform, emerald.FSTexturedEarlyZ); err != nil {
		return gl.MeshHandle{}, err
	}
	tex, err := ctx.UploadTexture(scene.Texture)
	if err != nil {
		return gl.MeshHandle{}, err
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		return gl.MeshHandle{}, err
	}
	return ctx.UploadMesh(scene.Mesh)
}

func newFragRig(scene *geom.Scene, tr *tracer) (*fragRig, error) {
	r := &fragRig{reg: stats.NewRegistry(), scene: scene}
	r.sys = emerald.NewStandaloneGPU(r.reg)
	r.ctx = emerald.NewGL(r.sys)
	up := tr.begin(noSpan, "gl.upload_ms", -1)
	mesh, err := bindScene(r.ctx, scene)
	tr.end(up)
	r.mesh = mesh
	return r, err
}

// frame renders view i of the orbit to completion.
func (r *fragRig) frame(tr *tracer, op, i int) error {
	root := tr.begin(noSpan, "gpu_frag.frame", op)
	defer tr.end(root)
	s := tr.begin(root, "gl.clear_us", op)
	r.ctx.Clear(clearColor, true)
	tr.end(s)
	r.ctx.SetMVP(r.scene.MVP(i, float32(fragWidth)/float32(fragHeight)))
	s = tr.begin(root, "gpu.submit_us", op)
	err := r.ctx.DrawMesh(r.mesh)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(root, "gpu.run_ms", op)
	_, err = r.sys.RunUntilIdle(gpuBudget)
	tr.end(s)
	return err
}

func (r *fragRig) counts() counts {
	c := counts{"cycles": float64(r.sys.Cycle()), "skipped": float64(r.sys.SkippedCycles())}
	c.addRegistry(r.reg)
	return c
}

// gpuFrag is the gpu_frag workload.
type gpuFrag struct {
	*fragRig
	frames int // per round
	warmN  int

	// The functional mirror: the same GL stream executed by
	// gpu.ExecuteDrawFunc on its own memory, the reference the detailed
	// pipeline's surfaces must match pixel for pixel.
	fmem *mem.Memory
	fctx *gl.Context
	fmsh gl.MeshHandle

	last     int // orbit view of the most recent frame
	failures []string
}

func setupGPUFrag(e *env) (instance, error) {
	scene, err := fragScene(e.seed)
	if err != nil {
		return nil, err
	}
	rig, err := newFragRig(scene, e.tr)
	if err != nil {
		return nil, err
	}
	g := &gpuFrag{fragRig: rig, frames: e.n(fragRoundFrames), warmN: e.n(fragWarmFrames)}
	g.fmem = mem.NewMemory()
	g.fctx = gl.NewContext(g.fmem, 0x1000_0000, 256<<20) // emerald.NewGL's heap
	g.fctx.Submit = func(call *gpu.DrawCall) error { return gpu.ExecuteDrawFunc(g.fmem, call, nil) }
	g.fmsh, err = bindScene(g.fctx, scene)
	return g, err
}

func (g *gpuFrag) warm() error {
	for i := 0; i < g.warmN; i++ {
		if err := g.frame(nil, -1, i); err != nil {
			return err
		}
	}
	return nil
}

func (g *gpuFrag) round(tr *tracer, rec *roundRec) error {
	for i := 0; i < g.frames; i++ {
		if err := rec.op(func(op int) error { return g.frame(tr, op, i) }); err != nil {
			return err
		}
		g.last = i
		if rec.opBase == 0 && i == 0 { // the first timed frame
			g.verify("first")
		}
	}
	return nil
}

// verify renders the most recent view functionally and compares both
// surfaces byte for byte.
func (g *gpuFrag) verify(which string) {
	g.fctx.Clear(clearColor, true)
	g.fctx.SetMVP(g.scene.MVP(g.last, float32(fragWidth)/float32(fragHeight)))
	if err := g.fctx.DrawMesh(g.fmsh); err != nil {
		g.failures = append(g.failures, fmt.Sprintf("gpu_frag %s frame: functional draw: %v", which, err))
		return
	}
	for _, s := range []struct {
		name     string
		det, ref gfx.Surface
	}{
		{"colour", g.ctx.ColorSurface(), g.fctx.ColorSurface()},
		{"depth", g.ctx.DepthSurface(), g.fctx.DepthSurface()},
	} {
		a, b := make([]byte, s.det.SizeBytes()), make([]byte, s.ref.SizeBytes())
		g.sys.Mem().Read(s.det.Base, a)
		g.fmem.Read(s.ref.Base, b)
		if !bytes.Equal(a, b) {
			g.failures = append(g.failures, fmt.Sprintf("gpu_frag %s frame: %s surface differs from gpu.ExecuteDrawFunc", which, s.name))
		}
	}
}

func (g *gpuFrag) check() []string {
	g.verify("last")
	return g.failures
}

func (g *gpuFrag) finish(metricSet) {}
func (g *gpuFrag) close()           {}

// gpgpuStream is the gpgpu_stream workload: SAXPY, VecAdd and
// ReduceAtomic rotated over seeded arrays on the same GPU, no graphics.
type gpgpuStream struct {
	reg *stats.Registry
	sys *emerald.StandaloneGPU

	n       int
	launchN int // per round
	warmN   int
	next    int // kernel rotation position

	// Host copies of what device memory must hold. Values are small
	// integers so every float32 sum is exact whatever order the atomics
	// land in.
	x, y, c []float32
	sumX    float32
	ranAdd  bool

	failures []string
}

const (
	streamElems               = 32 * 1024
	streamRoundLaunches       = 6
	streamWarmLaunches        = 9
	streamX, streamY, streamC = 0x10_0000, 0x20_0000, 0x30_0000
	streamOut, streamParams   = 0x40_0000, 0x50_0000
	streamThreads             = 256
	streamA                   = 2
)

func setupGPGPUStream(e *env) (instance, error) {
	g := &gpgpuStream{reg: stats.NewRegistry(), n: e.n(streamElems),
		launchN: e.n(streamRoundLaunches), warmN: e.n(streamWarmLaunches)}
	g.sys = emerald.NewStandaloneGPU(g.reg)
	r := newRNG(e.seed, "gpgpu")
	g.x, g.y, g.c = make([]float32, g.n), make([]float32, g.n), make([]float32, g.n)
	m := g.sys.Mem()
	for i := 0; i < g.n; i++ {
		g.x[i], g.y[i] = float32(r.intn(16)), float32(r.intn(16))
		g.sumX += g.x[i]
		m.WriteF32(streamX+uint64(i)*4, g.x[i])
		m.WriteF32(streamY+uint64(i)*4, g.y[i])
	}
	return g, nil
}

// launch runs the next kernel of the rotation and updates the host
// copy of its output.
func (g *gpgpuStream) launch(tr *tracer, op int) error {
	m := g.sys.Mem()
	k := emerald.Kernel{Blocks: (g.n + streamThreads - 1) / streamThreads,
		ThreadsPerBlock: streamThreads, ParamBase: streamParams}
	m.WriteU32(streamParams+12, uint32(g.n))
	switch g.next % 3 {
	case 0: // y = a*x + y
		k.Prog = emerald.KernelSAXPY
		m.WriteU32(streamParams, streamX)
		m.WriteU32(streamParams+4, streamY)
		m.WriteF32(streamParams+8, streamA)
		for i := range g.y {
			g.y[i] += streamA * g.x[i]
		}
	case 1: // c = x + y
		k.Prog = emerald.KernelVecAdd
		m.WriteU32(streamParams, streamX)
		m.WriteU32(streamParams+4, streamY)
		m.WriteU32(streamParams+8, streamC)
		for i := range g.c {
			g.c[i] = g.x[i] + g.y[i]
		}
		g.ranAdd = true
	case 2: // out = sum(x)
		k.Prog = emerald.KernelReduce
		m.WriteU32(streamParams, streamX)
		m.WriteU32(streamParams+4, streamOut)
		m.WriteF32(streamOut, 0)
	}
	g.next++
	s := tr.begin(noSpan, "gpu.kernel_run_ms", op)
	_, err := g.sys.RunKernel(k, gpuBudget)
	tr.end(s)
	return err
}

func (g *gpgpuStream) warm() error {
	for i := 0; i < g.warmN; i++ {
		if err := g.launch(nil, -1); err != nil {
			return err
		}
	}
	return nil
}

func (g *gpgpuStream) round(tr *tracer, rec *roundRec) error {
	for i := 0; i < g.launchN; i++ {
		if err := rec.op(func(op int) error { return g.launch(tr, op) }); err != nil {
			return err
		}
	}
	if rec.opBase == 0 {
		g.verify("first round")
	}
	return nil
}

// verify compares device memory with the host-computed outputs.
func (g *gpgpuStream) verify(when string) {
	m := g.sys.Mem()
	bad := func(what string, i int, got, want float32) {
		g.failures = append(g.failures, fmt.Sprintf("gpgpu_stream %s: %s[%d] = %v, want %v", when, what, i, got, want))
	}
	for i := 0; i < g.n; i++ {
		if got := m.ReadF32(streamY + uint64(i)*4); got != g.y[i] {
			bad("y", i, got, g.y[i])
			break
		}
	}
	if g.ranAdd {
		for i := 0; i < g.n; i++ {
			if got := m.ReadF32(streamC + uint64(i)*4); got != g.c[i] {
				bad("c", i, got, g.c[i])
				break
			}
		}
	}
	if g.next%3 == 0 && g.next > 0 { // the last launch was the reduction
		if got := m.ReadF32(streamOut); got != g.sumX {
			bad("sum", 0, got, g.sumX)
		}
	}
}

func (g *gpgpuStream) check() []string {
	g.verify("end")
	return g.failures
}

func (g *gpgpuStream) counts() counts {
	c := counts{"cycles": float64(g.sys.Cycle()), "skipped": float64(g.sys.SkippedCycles())}
	c.addRegistry(g.reg)
	return c
}

func (g *gpgpuStream) finish(metricSet) {}
func (g *gpgpuStream) close()           {}
