// Package emerald is a from-scratch Go reproduction of "Emerald:
// Graphics Modeling for SoC Systems" (Gubran & Aamodt, ISCA 2019): a
// cycle-level GPU simulator that executes graphics shaders and GPGPU
// kernels on one unified SIMT microarchitecture, plus a full-SoC mode
// (CPUs, display controller, shared DRAM) for system-level studies.
//
// This package is the public facade: it re-exports the simulator's main
// types and provides turnkey constructors for the paper's two modes.
//
// Standalone mode (paper Figure 8a) — GPU + DRAM, driven through the
// GL-like API:
//
//	sys := emerald.NewStandaloneGPU(nil)           // Table 7 GPU
//	ctx := emerald.NewGL(sys)
//	err := ctx.Viewport(256, 192)
//	ctx.UseProgram(emerald.VSTransform, emerald.FSTexturedEarlyZ)
//	... upload mesh/texture, DrawMesh, sys.RunUntilIdle(budget)
//
// Full-system mode (Figure 8b) — CPU cores running a frame-production
// workload, GPU, display and DRAM sharing memory:
//
//	scene, _ := emerald.SoCModel(emerald.M3Mask)
//	cfg := emerald.DefaultSoCConfig(scene)
//	s, _ := emerald.NewSoC(cfg, nil)
//	s.Run(budget)
//
// The experiment harnesses regenerating every figure of the paper's
// evaluation live in internal/exp and are exposed through cmd/memstudy
// and cmd/dfsl, and through the benchmarks in bench_test.go.
package emerald

import (
	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
	"emerald/internal/soc"
	"emerald/internal/stats"
	"emerald/internal/trace"
)

// Core simulator types.
type (
	// GPU is the full Emerald GPU model (SIMT clusters, graphics
	// pipeline, L2, GPGPU dispatch, DFSL).
	GPU = gpu.GPU
	// GPUConfig configures a GPU instance.
	GPUConfig = gpu.Config
	// StandaloneGPU wires a GPU straight to DRAM (paper Figure 8a).
	StandaloneGPU = gpu.Standalone
	// DrawCall is one fully bound draw.
	DrawCall = gpu.DrawCall
	// Kernel is a GPGPU grid launch (the unified-model compute path).
	Kernel = gpu.Kernel
	// DFSLController implements Case Study II's dynamic fragment-shading
	// load balancer (Algorithm 1).
	DFSLController = gpu.DFSL

	// GL is the OpenGL-ES-like context (the Mesa3D role in Figure 8).
	GL = gl.Context
	// MeshHandle is an uploaded mesh.
	MeshHandle = gl.MeshHandle

	// SoC is the full-system model (paper Figure 1).
	SoC = soc.SoC
	// SoCConfig configures the full system.
	SoCConfig = soc.Config
	// SoCResults summarizes a full-system run.
	SoCResults = soc.Results

	// Scene is a renderable workload (mesh + texture + camera path).
	Scene = geom.Scene
	// Mesh is an indexed triangle mesh.
	Mesh = geom.Mesh
	// Texture is an RGBA8 image.
	Texture = geom.Texture

	// Program is an assembled EIR shader.
	Program = shader.Program

	// Surface is a render target in simulated memory.
	Surface = gfx.Surface

	// Memory is the functional physical memory.
	Memory = mem.Memory

	// Registry collects simulation statistics.
	Registry = stats.Registry
	// Table is the fixed-width result table the harnesses print.
	Table = stats.Table

	// Trace is a recorded GL API stream (APITrace substitute).
	Trace = trace.Trace
	// Checkpoint is a resumable snapshot (trace + memory).
	Checkpoint = trace.Checkpoint

	// Vec3 and Mat4 are the math types used by camera setup.
	Vec3 = mathx.Vec3
	// Mat4 is a 4x4 column-major matrix.
	Mat4 = mathx.Mat4
)

// Standard shader library (see internal/shader for the EIR assembly).
var (
	VSTransform      = shader.VSTransform
	FSTexturedEarlyZ = shader.FSTexturedEarlyZ
	FSTexturedLateZ  = shader.FSTexturedLateZ
	FSTexturedBlend  = shader.FSTexturedBlend
	FSFlat           = shader.FSFlat
	KernelSAXPY      = shader.KernelSAXPY
	KernelVecAdd     = shader.KernelVecAdd
	KernelReduce     = shader.KernelReduceAtomic
)

// Workload identifiers (paper Tables 6 and 8).
const (
	M1Chair     = geom.M1Chair
	M2Cube      = geom.M2Cube
	M3Mask      = geom.M3Mask
	M4Triangles = geom.M4Triangles

	W1Sibenik  = geom.W1Sibenik
	W2Spot     = geom.W2Spot
	W3Cube     = geom.W3Cube
	W4Suzanne  = geom.W4Suzanne
	W5SuzanneT = geom.W5SuzanneT
	W6Teapot   = geom.W6Teapot
)

// AssembleShader assembles EIR shader source (see internal/shader's
// package documentation for the ISA).
func AssembleShader(name string, kind shader.Kind, src string) (*Program, error) {
	return shader.Assemble(name, kind, src)
}

// Shader kinds for AssembleShader.
const (
	KindVertex   = shader.KindVertex
	KindFragment = shader.KindFragment
	KindCompute  = shader.KindCompute
)

// NewRegistry returns an empty statistics registry.
func NewRegistry() *Registry { return stats.NewRegistry() }

// CaseStudyIGPU returns the Table 5 SoC GPU configuration.
func CaseStudyIGPU() GPUConfig { return gpu.CaseStudyIConfig() }

// CaseStudyIIGPU returns the Table 7 standalone GPU configuration.
func CaseStudyIIGPU() GPUConfig { return gpu.CaseStudyIIConfig() }

// NewStandaloneGPU builds the Case Study II standalone system (Table 7
// GPU over 4-channel LPDDR3-1600). reg may be nil.
func NewStandaloneGPU(reg *Registry) *StandaloneGPU {
	return gpu.DefaultStandalone(reg)
}

// NewStandaloneGPUWith builds a standalone system from explicit GPU and
// DRAM configurations.
func NewStandaloneGPUWith(g GPUConfig, d dram.Config, reg *Registry) *StandaloneGPU {
	return gpu.NewStandalone(g, d, reg)
}

// NewGL creates a GL context wired to a standalone system: draws submit
// to the GPU and depth clears invalidate its Hi-Z.
func NewGL(s *StandaloneGPU) *GL {
	ctx := gl.NewContext(s.Mem(), gl.HeapBase, gl.HeapSize)
	ctx.Submit = func(call *DrawCall) error { return s.GPU.SubmitDraw(call, nil) }
	ctx.OnClearDepth = s.GPU.ClearHiZ
	return ctx
}

// DefaultSoCConfig returns the Case Study I full-system configuration
// (Table 5) around a scene.
func DefaultSoCConfig(scene *Scene) SoCConfig { return soc.DefaultConfig(scene) }

// NewSoC assembles a full system. reg may be nil.
func NewSoC(cfg SoCConfig, reg *Registry) (*SoC, error) { return soc.New(cfg, reg) }

// SoCModel builds one of the Case Study I workload scenes (M1-M4).
func SoCModel(id int) (*Scene, error) { return geom.SoCModel(id) }

// DFSLWorkload builds one of the Case Study II workloads (W1-W6).
func DFSLWorkload(id int) (*Scene, error) { return geom.DFSLWorkload(id) }

// NewDFSL creates the DFSL controller with the given WT range and
// run-phase length (paper defaults: 1, 10, 100).
func NewDFSL(minWT, maxWT, runFrames int) *DFSLController {
	return gpu.NewDFSL(minWT, maxWT, runFrames)
}

// Raster primitive topologies for GL.DrawElements.
const (
	Triangles     = raster.Triangles
	TriangleStrip = raster.TriangleStrip
	TriangleFan   = raster.TriangleFan
)

// LookAt and Perspective build camera matrices.
func LookAt(eye, center, up Vec3) Mat4 { return mathx.LookAt(eye, center, up) }

// Perspective builds a projection matrix (fovy radians).
func Perspective(fovy, aspect, near, far float32) Mat4 {
	return mathx.Perspective(fovy, aspect, near, far)
}

// V3 constructs a Vec3.
func V3(x, y, z float32) Vec3 { return mathx.V3(x, y, z) }
