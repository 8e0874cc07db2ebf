// Package gl provides the OpenGL-ES-like API and state tracker that sits
// between applications and the GPU model — the role Mesa3D plays in the
// paper's software stack (Figure 8). It owns object namespaces (buffers,
// textures), render state (depth/blend/cull, viewport, surfaces), the
// fixed uniform bank layout, and turns DrawElements into gpu.DrawCall
// submissions. An optional Recorder hook captures the API stream for the
// trace package (the APITrace substitute).
package gl

import (
	"fmt"
	"math"

	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/gpu"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
)

// Capability toggles, GL-style.
type Capability uint8

// Capabilities.
const (
	DepthTest Capability = iota
	Blend
	CullFace
)

// Uniform bank byte offsets (shared with shader stdlib conventions).
const (
	UniformMVP   = 0
	UniformLight = 64
	UniformAlpha = 80
	uniformBytes = 128
)

// HeapBase and HeapSize place every context's object heap: the full
// SoC, the standalone rigs and functional replay all allocate from the
// same range, which is what lets a functional checkpoint restore onto
// a detailed system with identical addresses.
const (
	HeapBase = 0x1000_0000
	HeapSize = 256 << 20
)

// Recorder observes the API stream (implemented by the trace package).
type Recorder interface {
	Op(name string, args []uint32, blob []byte)
}

// Context is one GL context: objects + state + a submission target.
type Context struct {
	Mem *mem.Memory
	// Submit receives finished draw calls (wired to gpu.SubmitDraw by
	// the standalone/full-system drivers).
	Submit func(*gpu.DrawCall) error
	// OnClearDepth lets the GPU invalidate its Hi-Z when the depth
	// buffer is cleared.
	OnClearDepth func()

	// Recorder, when set, captures the API stream.
	Recorder Recorder

	heap     uint64 // bump allocator cursor
	heapEnd  uint64
	nextName uint32

	buffers  map[uint32]bufferObj
	textures map[uint32]texObj

	// Bound state.
	vs, fs      *shader.Program
	arrayBuf    uint32
	stride      uint32
	attrs       [][2]uint32
	texUnits    [4]uint32
	caps        map[Capability]bool
	depthWrite  bool
	color       gfx.Surface
	depth       gfx.Surface
	vp          raster.Viewport
	uniformBase uint64
}

type bufferObj struct {
	base uint64
	size uint64
}

type texObj struct {
	base          uint64
	width, height int
	bilinear      bool
}

// NewContext creates a context managing the address range [heapBase,
// heapBase+heapSize) for its objects.
func NewContext(m *mem.Memory, heapBase, heapSize uint64) *Context {
	c := &Context{
		Mem:        m,
		heap:       heapBase,
		heapEnd:    heapBase + heapSize,
		nextName:   1,
		buffers:    make(map[uint32]bufferObj),
		textures:   make(map[uint32]texObj),
		caps:       map[Capability]bool{DepthTest: true, CullFace: true},
		depthWrite: true,
	}
	base, err := c.alloc(uniformBytes)
	if err != nil {
		panic(err) // a heap too small for the uniform bank is a caller bug
	}
	c.uniformBase = base
	// Sensible defaults.
	c.SetMVP(mathx.Identity())
	c.SetLight(mathx.V3(0, 0, 1))
	c.SetAlpha(1)
	return c
}

// alloc bumps size bytes off the heap. Sizes reach it from trace files
// (trace.Replay), so exhaustion is an error, and a failed allocation
// leaves the cursor where it was.
func (c *Context) alloc(size uint64) (uint64, error) {
	const align = 256
	addr := (c.heap + align - 1) &^ (align - 1)
	if addr > c.heapEnd || size > c.heapEnd-addr {
		return 0, fmt.Errorf("gl: heap exhausted (%d bytes requested at %#x, heap ends at %#x)", size, addr, c.heapEnd)
	}
	c.heap = addr + size
	return addr, nil
}

func (c *Context) record(name string, args []uint32, blob []byte) {
	if c.Recorder != nil {
		c.Recorder.Op(name, args, blob)
	}
}

// GenBuffer creates a buffer object name.
func (c *Context) GenBuffer() uint32 {
	n := c.nextName
	c.nextName++
	c.buffers[n] = bufferObj{}
	c.record("GenBuffer", []uint32{n}, nil)
	return n
}

// BufferData allocates storage for a buffer and uploads data.
func (c *Context) BufferData(name uint32, data []byte) error {
	if _, ok := c.buffers[name]; !ok {
		return fmt.Errorf("gl: unknown buffer %d", name)
	}
	base, err := c.alloc(uint64(len(data)))
	if err != nil {
		return err
	}
	c.Mem.Write(base, data)
	c.buffers[name] = bufferObj{base: base, size: uint64(len(data))}
	c.record("BufferData", []uint32{name}, data)
	return nil
}

// BufferDataF32 uploads float32 data.
func (c *Context) BufferDataF32(name uint32, data []float32) error {
	raw := make([]byte, len(data)*4)
	for i, f := range data {
		bits := math.Float32bits(f)
		raw[i*4] = byte(bits)
		raw[i*4+1] = byte(bits >> 8)
		raw[i*4+2] = byte(bits >> 16)
		raw[i*4+3] = byte(bits >> 24)
	}
	return c.BufferData(name, raw)
}

// GenTexture creates a texture object name.
func (c *Context) GenTexture() uint32 {
	n := c.nextName
	c.nextName++
	c.textures[n] = texObj{}
	c.record("GenTexture", []uint32{n}, nil)
	return n
}

// TexImage2D uploads an RGBA8 image to a texture.
func (c *Context) TexImage2D(name uint32, w, h int, rgba []byte) error {
	if _, ok := c.textures[name]; !ok {
		return fmt.Errorf("gl: unknown texture %d", name)
	}
	if err := checkDims(w, h); err != nil {
		return err
	}
	if len(rgba) != w*h*4 {
		return fmt.Errorf("gl: texture data %d bytes, want %d", len(rgba), w*h*4)
	}
	base, err := c.alloc(uint64(len(rgba)))
	if err != nil {
		return err
	}
	c.Mem.Write(base, rgba)
	c.textures[name] = texObj{base: base, width: w, height: h}
	c.record("TexImage2D", []uint32{name, uint32(w), uint32(h)}, rgba)
	return nil
}

// TexFilterBilinear sets a texture's filtering mode (default nearest).
func (c *Context) TexFilterBilinear(name uint32, on bool) error {
	to, ok := c.textures[name]
	if !ok {
		return fmt.Errorf("gl: unknown texture %d", name)
	}
	to.bilinear = on
	c.textures[name] = to
	v := uint32(0)
	if on {
		v = 1
	}
	c.record("TexFilterBilinear", []uint32{name, v}, nil)
	return nil
}

// BindTexture binds a texture to a unit.
func (c *Context) BindTexture(unit int, name uint32) error {
	if unit < 0 || unit >= len(c.texUnits) {
		return fmt.Errorf("gl: bad texture unit %d", unit)
	}
	if _, ok := c.textures[name]; !ok {
		return fmt.Errorf("gl: unknown texture %d", name)
	}
	c.texUnits[unit] = name
	c.record("BindTexture", []uint32{uint32(unit), name}, nil)
	return nil
}

// UseProgram binds the vertex and fragment shaders.
func (c *Context) UseProgram(vs, fs *shader.Program) error {
	if vs == nil || vs.Kind != shader.KindVertex || fs == nil || fs.Kind != shader.KindFragment {
		return fmt.Errorf("gl: UseProgram needs a VS and an FS")
	}
	c.vs, c.fs = vs, fs
	c.record("UseProgram", nil, []byte(vs.Name+"\x00"+fs.Name))
	return nil
}

// BindArrayBuffer selects the vertex buffer and its layout.
func (c *Context) BindArrayBuffer(name uint32, stride uint32, attrs [][2]uint32) error {
	if _, ok := c.buffers[name]; !ok {
		return fmt.Errorf("gl: unknown buffer %d", name)
	}
	c.arrayBuf = name
	c.stride = stride
	c.attrs = attrs
	flat := []uint32{name, stride}
	for _, a := range attrs {
		flat = append(flat, a[0], a[1])
	}
	c.record("BindArrayBuffer", flat, nil)
	return nil
}

// Enable turns a capability on.
func (c *Context) Enable(cap Capability) {
	c.caps[cap] = true
	c.record("Enable", []uint32{uint32(cap)}, nil)
}

// Disable turns a capability off.
func (c *Context) Disable(cap Capability) {
	c.caps[cap] = false
	c.record("Disable", []uint32{uint32(cap)}, nil)
}

// DepthMask toggles depth writes.
func (c *Context) DepthMask(write bool) {
	c.depthWrite = write
	v := uint32(0)
	if write {
		v = 1
	}
	c.record("DepthMask", []uint32{v}, nil)
}

// Viewport sets the render size and allocates color/depth surfaces for
// it (a combined glViewport + framebuffer allocation). On error the
// previous viewport and surfaces stay bound.
func (c *Context) Viewport(w, h int) error {
	if err := checkDims(w, h); err != nil {
		return err
	}
	color, err := c.alloc(uint64(w * h * 4))
	if err != nil {
		return err
	}
	depth, err := c.alloc(uint64(w * h * 4))
	if err != nil {
		return err
	}
	c.vp = raster.Viewport{Width: w, Height: h}
	c.color = gfx.Surface{Base: color, Width: w, Height: h}
	c.depth = gfx.Surface{Base: depth, Width: w, Height: h}
	c.record("Viewport", []uint32{uint32(w), uint32(h)}, nil)
	return nil
}

// MaxSurfaceDim bounds the width and height of a render surface or
// texture. Dimensions arrive from trace files as raw 32-bit words;
// inside the bound w*h*4 cannot overflow and one Clear touches at most
// 64 MiB of simulated memory.
const MaxSurfaceDim = 4096

func checkDims(w, h int) error {
	if w < 0 || h < 0 || w > MaxSurfaceDim || h > MaxSurfaceDim {
		return fmt.Errorf("gl: surface %dx%d outside [0, %d]", w, h, MaxSurfaceDim)
	}
	return nil
}

// BindSurfaces points rendering at externally managed color/depth
// surfaces (the SoC's flip chain uses this).
func (c *Context) BindSurfaces(color, depth gfx.Surface) {
	c.color, c.depth = color, depth
	c.vp = raster.Viewport{Width: color.Width, Height: color.Height}
	c.record("BindSurfaces", []uint32{
		uint32(color.Base), uint32(color.Base >> 32), uint32(color.Width), uint32(color.Height),
		uint32(depth.Base), uint32(depth.Base >> 32),
	}, nil)
}

// ColorSurface returns the current color target.
func (c *Context) ColorSurface() gfx.Surface { return c.color }

// DepthSurface returns the current depth target.
func (c *Context) DepthSurface() gfx.Surface { return c.depth }

// SetMVP writes the model-view-projection matrix to the uniform bank.
func (c *Context) SetMVP(m mathx.Mat4) {
	blob := make([]byte, 64)
	for i, f := range m {
		bits := math.Float32bits(f)
		blob[i*4] = byte(bits)
		blob[i*4+1] = byte(bits >> 8)
		blob[i*4+2] = byte(bits >> 16)
		blob[i*4+3] = byte(bits >> 24)
		c.Mem.WriteF32(c.uniformBase+UniformMVP+uint64(i*4), f)
	}
	c.record("SetMVP", nil, blob)
}

// SetLight writes the light direction (also used as flat color).
func (c *Context) SetLight(v mathx.Vec3) {
	c.Mem.WriteF32(c.uniformBase+UniformLight+0, v.X)
	c.Mem.WriteF32(c.uniformBase+UniformLight+4, v.Y)
	c.Mem.WriteF32(c.uniformBase+UniformLight+8, v.Z)
	c.record("SetLight", []uint32{math.Float32bits(v.X), math.Float32bits(v.Y), math.Float32bits(v.Z)}, nil)
}

// SetFlatColor writes an RGBA value into the light/color uniform slot.
func (c *Context) SetFlatColor(r, g, b, a float32) {
	c.Mem.WriteF32(c.uniformBase+UniformLight+0, r)
	c.Mem.WriteF32(c.uniformBase+UniformLight+4, g)
	c.Mem.WriteF32(c.uniformBase+UniformLight+8, b)
	c.Mem.WriteF32(c.uniformBase+UniformLight+12, a)
	c.record("SetFlatColor", []uint32{
		math.Float32bits(r), math.Float32bits(g), math.Float32bits(b), math.Float32bits(a)}, nil)
}

// SetAlpha writes the blend alpha uniform.
func (c *Context) SetAlpha(a float32) {
	c.Mem.WriteF32(c.uniformBase+UniformAlpha, a)
	c.record("SetAlpha", []uint32{math.Float32bits(a)}, nil)
}

// Clear fills the color buffer (packed RGBA8) and, if depth is set, the
// depth buffer (to 1.0), invalidating the GPU's Hi-Z.
func (c *Context) Clear(color uint32, depth bool) {
	if c.vp.Width == 0 {
		return
	}
	c.color.ClearColor(c.Mem, color)
	if depth {
		c.depth.ClearDepth(c.Mem, 1.0)
		if c.OnClearDepth != nil {
			c.OnClearDepth()
		}
	}
	d := uint32(0)
	if depth {
		d = 1
	}
	c.record("Clear", []uint32{color, d}, nil)
}

// FrameEnd records a frame-boundary marker. It has no rendering
// effect; replay hooks key off it — per-frame signatures, checkpoint
// placement, and region gating in sampled simulation.
func (c *Context) FrameEnd() {
	c.record("FrameEnd", nil, nil)
}

// DrawElements submits an indexed draw with the current state.
func (c *Context) DrawElements(mode raster.PrimMode, indices []uint32) error {
	if c.vs == nil || c.fs == nil {
		return fmt.Errorf("gl: no program bound")
	}
	buf, ok := c.buffers[c.arrayBuf]
	if !ok || buf.size == 0 {
		return fmt.Errorf("gl: no array buffer bound")
	}
	if c.vp.Width == 0 {
		return fmt.Errorf("gl: no viewport/surfaces")
	}
	var texes []gpu.TextureBinding
	for unit := 0; unit < c.fs.Units; unit++ {
		to, ok := c.textures[c.texUnits[unit]]
		if !ok || to.width == 0 {
			return fmt.Errorf("gl: fragment shader samples unit %d with no texture", unit)
		}
		texes = append(texes, gpu.TextureBinding{
			Base: to.base, Width: to.width, Height: to.height, Bilinear: to.bilinear,
		})
	}
	call := &gpu.DrawCall{
		VS: c.vs, FS: c.fs,
		VertexBase:   buf.base,
		VertexStride: c.stride,
		AttrOffsets:  c.attrs,
		Indices:      indices,
		Mode:         mode,
		UniformBase:  c.uniformBase,
		Textures:     texes,
		Color:        c.color,
		Depth:        c.depth,
		DepthTest:    c.caps[DepthTest],
		DepthWrite:   c.depthWrite && c.caps[DepthTest],
		Blend:        c.caps[Blend],
		CullBack:     c.caps[CullFace],
		Viewport:     c.vp,
	}
	if err := call.Validate(); err != nil {
		return err
	}
	idxBlob := make([]byte, len(indices)*4)
	for i, v := range indices {
		idxBlob[i*4] = byte(v)
		idxBlob[i*4+1] = byte(v >> 8)
		idxBlob[i*4+2] = byte(v >> 16)
		idxBlob[i*4+3] = byte(v >> 24)
	}
	c.record("DrawElements", []uint32{uint32(mode)}, idxBlob)
	if c.Submit == nil {
		return fmt.Errorf("gl: no submission target")
	}
	return c.Submit(call)
}

// MeshHandle bundles an uploaded mesh's buffer and index data.
type MeshHandle struct {
	Buffer  uint32
	Indices []uint32
	Stride  uint32
	Attrs   [][2]uint32
}

// UploadMesh uploads a geom.Mesh in the standard interleaved layout.
func (c *Context) UploadMesh(m *geom.Mesh) (MeshHandle, error) {
	buf := c.GenBuffer()
	if err := c.BufferDataF32(buf, m.InterleavedVertexData()); err != nil {
		return MeshHandle{}, err
	}
	return MeshHandle{
		Buffer:  buf,
		Indices: m.Indices,
		Stride:  geom.VertexStrideBytes,
		Attrs:   [][2]uint32{{0, 3}, {12, 3}, {24, 2}},
	}, nil
}

// UploadTexture uploads a geom.Texture and returns its name.
func (c *Context) UploadTexture(t *geom.Texture) (uint32, error) {
	name := c.GenTexture()
	if err := c.TexImage2D(name, t.Width, t.Height, t.Pixels); err != nil {
		return 0, err
	}
	return name, nil
}

// LoadScene uploads a scene's assets and binds the state every
// harness renders it with: mesh, texture on unit 0, the blend state for
// a translucent scene, the textured program and the light. The order is
// pinned: heap addresses follow from it, and with them every cycle
// count, state digest and cached sweep result.
func (c *Context) LoadScene(scene *geom.Scene) (MeshHandle, error) {
	mesh, err := c.UploadMesh(scene.Mesh)
	if err != nil {
		return MeshHandle{}, err
	}
	tex, err := c.UploadTexture(scene.Texture)
	if err != nil {
		return MeshHandle{}, err
	}
	if err := c.BindTexture(0, tex); err != nil {
		return MeshHandle{}, err
	}
	fs := shader.FSTexturedEarlyZ
	if scene.Translucent {
		fs = shader.FSTexturedBlend
		c.Enable(Blend)
		c.DepthMask(false)
		c.SetAlpha(0.6)
	}
	if err := c.UseProgram(shader.VSTransform, fs); err != nil {
		return MeshHandle{}, err
	}
	c.SetLight(mathx.V3(0.4, 0.5, 0.8).Normalize())
	return mesh, nil
}

// DrawMesh binds a mesh handle and draws it.
func (c *Context) DrawMesh(h MeshHandle) error {
	if err := c.BindArrayBuffer(h.Buffer, h.Stride, h.Attrs); err != nil {
		return err
	}
	return c.DrawElements(raster.Triangles, h.Indices)
}
