package gpu

import (
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/simt"
)

// This file is the functional-mode draw executor: it runs the steps of
// a draw (draw.go) against the functional memory with every timing
// model removed — no cores, no caches, no interconnect, no cycles — and
// counts. Sampled simulation's fast pass replays a whole trace through
// it. DESIGN.md "Sampled simulation" states why its memory matches a
// timed run's byte for byte.

// FuncStats accumulates the functional pass's counters — the raw
// material of a frame's sampled-simulation signature vector (draws,
// primitives, fragments, texture/DRAM traffic).
type FuncStats struct {
	Draws    uint64
	Verts    uint64
	Prims    uint64 // assembled primitives
	Culled   uint64 // clipped, backface-culled or degenerate at setup
	Tiles    uint64 // non-empty raster tiles
	Frags    uint64 // fragments shaded
	TexReads uint64 // texel fetches
	VtxBytes uint64 // vertex attribute fetch traffic
	TexBytes uint64 // texture fetch traffic
	ROPBytes uint64 // depth/color read-modify-write traffic
}

// TrafficBytes is the draw's approximate memory traffic — the
// signature's DRAM-pressure dimension.
func (s *FuncStats) TrafficBytes() uint64 { return s.VtxBytes + s.TexBytes + s.ROPBytes }

// ExecuteDrawFunc renders one draw call functionally, batch by batch in
// draw order: vertex shading, then assembly and setup, each surviving
// primitive rasterized and its fragments shaded before the next
// primitive starts, so per-pixel blending and depth order match the
// timed pipeline's in-order guarantee. st may be nil.
func ExecuteDrawFunc(m *mem.Memory, call *DrawCall, st *FuncStats) error {
	if err := call.Validate(); err != nil {
		return err
	}
	if st == nil {
		st = &FuncStats{}
	}
	st.Draws++

	// One warp runner, one page-caching memory view, one batch record,
	// one setup triangle and one fragment scratch buffer serve the whole
	// draw — the per-warp and per-primitive hot paths allocate nothing.
	fd := &funcDraw{m: m, mv: mem.NewView(m)}
	env := &funcVSEnv{vertexIO: vertexIO{m: m, rd: fd.mv, call: call, rec: &fd.batch}, st: st}

	var seq uint32
	for b := range batchCount(call) {
		fd.batch, env.batch = vertexBatch{}, b
		mask, specials := vsWarp(call, b)
		fd.runner.Exec(call.VS, env, mask, specials)
		st.Verts += uint64(batchLanes(call, b))
		assembled, culled := assemble(call, b, &fd.batch, &seq, &fd.tris, func(tri *raster.SetupTri, _ [3]int) {
			fd.shadePrim(call, tri, st)
			fd.tris.reset() // shaded: nothing points at tri any more
		})
		st.Prims += uint64(assembled)
		st.Culled += uint64(culled)
	}
	return nil
}

// funcDraw carries the per-draw execution state the functional path
// reuses across warps and primitives: the warp runner (warp + SIMT
// stack + memory view), the shared texture/vertex-fetch view, the batch
// record, the setup triangle, and the raster-tile and fragment scratch
// buffers.
type funcDraw struct {
	m      *mem.Memory
	mv     *mem.View
	runner simt.FuncRunner
	batch  vertexBatch       // the batch being shaded and assembled
	tris   triSlab           // one triangle, reset once it is shaded
	tiles  [][2]int          // scratch, reused across primitives
	frags  []raster.Fragment // scratch, reused across primitives
	fsEnv  funcFSEnv         // reused across fragment warps
}

// shadePrim rasterizes one setup triangle over the whole screen and
// shades its fragments, one warp per 32 in walk order.
func (fd *funcDraw) shadePrim(call *DrawCall, tri *raster.SetupTri, st *FuncStats) {
	fd.tiles = rasterTiles(tri, call.Viewport, nil, 0, fd.tiles[:0])
	frags := fd.frags[:0]
	for _, pos := range fd.tiles {
		before := len(frags)
		frags = raster.FineRasterInto(tri, pos[0], pos[1], call.Viewport, frags)
		if len(frags) > before {
			st.Tiles++
		}
	}
	env := &fd.fsEnv
	*env = funcFSEnv{fragmentIO: fragmentIO{m: fd.m, rd: fd.mv, call: call}, st: st}
	for lo := 0; lo < len(frags); lo += simt.WarpSize {
		env.frags = frags[lo:min(lo+simt.WarpSize, len(frags))]
		mask, specials := fsWarp(env.frags)
		fd.runner.Exec(call.FS, env, mask, specials)
	}
	st.Frags += uint64(len(frags))
	fd.frags = frags[:0] // hand the (possibly grown) scratch back
}

// funcVSEnv is the functional vertex warp's environment: the shared
// data path plus traffic counters. OutWrite returns no address: the
// output vertex buffer is never functionally written, in either
// executor.
type funcVSEnv struct {
	vertexIO
	st *FuncStats
}

func (e *funcVSEnv) AttrIn(lane, slot int) ([4]float32, uint64) {
	val, addr := e.vertexIO.AttrIn(lane, slot)
	if addr != 0 {
		e.st.VtxBytes += 16
	}
	return val, addr
}

func (e *funcVSEnv) OutWrite(lane, slot int, val [4]float32) uint64 {
	e.store(lane, slot, val)
	return 0
}

func (e *funcVSEnv) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	val, addrs := e.vertexIO.Tex(lane, unit, u, v)
	e.st.countTex(addrs)
	return val, addrs
}

func (e *funcVSEnv) Retired(w *simt.Warp) {}

// funcFSEnv is the functional fragment warp's environment: the shared
// data path plus traffic counters.
type funcFSEnv struct {
	fragmentIO
	st *FuncStats
}

func (e *funcFSEnv) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	val, addrs := e.fragmentIO.Tex(lane, unit, u, v)
	e.st.countTex(addrs)
	return val, addrs
}

func (e *funcFSEnv) ZAddr(lane int) uint64 {
	e.st.ROPBytes += 4
	return e.fragmentIO.ZAddr(lane)
}

func (e *funcFSEnv) CAddr(lane int) uint64 {
	e.st.ROPBytes += 4
	return e.fragmentIO.CAddr(lane)
}

func (e *funcFSEnv) Retired(w *simt.Warp) {}

// countTex tallies the texel fetches of one sample.
func (s *FuncStats) countTex(addrs [4]uint64) {
	for _, a := range addrs {
		if a != 0 {
			s.TexReads++
			s.TexBytes += 4
		}
	}
}
