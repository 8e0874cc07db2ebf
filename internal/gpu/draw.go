package gpu

import (
	"fmt"
	"math"

	"emerald/internal/gfx"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
	"emerald/internal/simt"
)

// TextureBinding points a texture unit at an RGBA8 image in simulated
// memory.
type TextureBinding struct {
	Base          uint64
	Width, Height int
	// Bilinear enables 2x2 bilinear filtering (4 texel reads through
	// L1T per sample) instead of nearest (1 read) — the detailed
	// filtering model called out in paper §3.5.
	Bilinear bool
}

// Addr returns the texel address for integer coordinates, wrapping
// (GL_REPEAT).
func (t TextureBinding) Addr(tx, ty int) uint64 {
	tx = ((tx % t.Width) + t.Width) % t.Width
	ty = ((ty % t.Height) + t.Height) % t.Height
	return t.Base + uint64(ty*t.Width+tx)*4
}

// DrawCall is one fully bound draw: programs, geometry, state and render
// targets. The GL layer builds these.
type DrawCall struct {
	VS, FS *shader.Program

	VertexBase   uint64
	VertexStride uint32
	// AttrOffsets maps vertex input slot -> (byte offset, float count).
	AttrOffsets [][2]uint32

	Indices []uint32
	Mode    raster.PrimMode

	UniformBase uint64
	Textures    []TextureBinding

	Color, Depth gfx.Surface

	DepthTest, DepthWrite, Blend, CullBack bool

	Viewport raster.Viewport
}

// Validate checks the call is well formed.
func (c *DrawCall) Validate() error {
	switch {
	case c.VS == nil || c.VS.Kind != shader.KindVertex:
		return fmt.Errorf("gpu: draw needs a vertex shader")
	case c.FS == nil || c.FS.Kind != shader.KindFragment:
		return fmt.Errorf("gpu: draw needs a fragment shader")
	case len(c.Indices) < 3:
		return fmt.Errorf("gpu: draw needs at least 3 indices")
	case c.Viewport.Width <= 0 || c.Viewport.Height <= 0:
		return fmt.Errorf("gpu: empty viewport")
	case c.VS.InSlots > len(c.AttrOffsets):
		return fmt.Errorf("gpu: vertex shader reads %d attribute slots, %d bound",
			c.VS.InSlots, len(c.AttrOffsets))
	case c.FS.Units > len(c.Textures):
		return fmt.Errorf("gpu: fragment shader samples %d units, %d bound",
			c.FS.Units, len(c.Textures))
	}
	return nil
}

// vertexBatch is the record of one vertex warp: its shaded vertices,
// one per lane, and its retirement (paper §3.3.3: overlapped vertex
// warps sized so primitives never span warps). Everything else about
// the warp is closed-form in its batch number (batchLanes, lanePos,
// batchTris). The timed pipeline keeps VertexWindow records in a ring,
// the functional executor one.
type vertexBatch struct {
	results   [simt.WarpSize]raster.Vertex
	completed bool
	env       vsEnv // the timed vertex warp's environment
}

// batchStep is the number of fresh index positions per vertex warp; the
// remaining lanes hold topology-dependent overlap.
const batchStep = 30

// batchCount returns how many vertex warps the draw's index stream
// splits into.
func batchCount(call *DrawCall) int {
	if call.Mode == raster.Triangles {
		return (len(call.Indices) + batchStep - 1) / batchStep
	}
	return (len(call.Indices) - 2 + batchStep - 1) / batchStep
}

// batchLanes returns how many lanes of batch b hold a vertex: a list
// batch holds its batchStep fresh positions, a strip or fan batch two
// more of overlap, so its last triangle's vertices are in the warp.
func batchLanes(call *DrawCall, b int) int {
	if call.Mode == raster.Triangles {
		return min(batchStep, len(call.Indices)-batchStep*b)
	}
	return min(simt.WarpSize, len(call.Indices)-batchStep*b)
}

// batchTris returns the topology triangle numbers (PrimMode.Tri) batch b
// assembles, [from, to): each triangle goes to the one batch holding
// all three of its vertices.
func batchTris(call *DrawCall, b int) (from, to int) {
	if call.Mode == raster.Triangles {
		const step = batchStep / 3
		return step * b, min(step*b+step, len(call.Indices)/3)
	}
	return batchStep * b, min(batchStep*b+batchStep, len(call.Indices)-2)
}

// lanePos returns the index-stream position lane of batch b holds.
func lanePos(call *DrawCall, b, lane int) int {
	if call.Mode == raster.TriangleFan && lane == 0 {
		return 0 // the hub, replicated in every fan warp
	}
	return batchStep*b + lane
}

// laneOf returns the lane of batch b holding index-stream position p of
// one of the batch's triangles: lanePos's inverse (no fan triangle of a
// batch b > 0 uses position batchStep*b).
func laneOf(call *DrawCall, b, p int) int {
	if call.Mode == raster.TriangleFan && p == 0 {
		return 0
	}
	return p - batchStep*b
}

// The rest of this file is the one definition of what a draw computes,
// called by both executors: the timed pipeline (pipeline.go) decides
// when each step happens and on which core, cluster and cache; the
// functional executor (functional.go) runs the steps back to back and
// counts. Neither re-implements a step.

// vsWarp returns the lane mask and specials of batch b's vertex warp:
// one index-stream position per lane.
func vsWarp(call *DrawCall, b int) (mask uint32, specials [simt.WarpSize]shader.Special) {
	n := batchLanes(call, b)
	for lane := 0; lane < n; lane++ {
		mask |= 1 << lane
		specials[lane] = shader.Special{
			TID:  uint32(lane),
			NTID: uint32(n),
			VID:  call.Indices[lanePos(call, b, lane)],
		}
	}
	return mask, specials
}

// fsWarp returns the lane mask and specials of a fragment warp: one
// fragment per lane, with its pixel, primitive and depth.
func fsWarp(frags []raster.Fragment) (mask uint32, specials [simt.WarpSize]shader.Special) {
	for lane, f := range frags {
		mask |= 1 << lane
		specials[lane] = shader.Special{
			TID:  uint32(lane),
			PX:   uint32(f.X),
			PY:   uint32(f.Y),
			Prim: f.Tri.ID,
			FZ:   math.Float32bits(f.Z),
		}
	}
	return mask, specials
}

// assemble runs batch b's triangles through topology, clip/cull and
// setup in draw order, reading their vertices from rec, sets each
// survivor up in a slot of tris, numbers it from *seq, and hands it to
// emit with the batch lanes of its three vertices. It returns how many
// triangles it assembled and how many of those clipping, backface
// culling or a degenerate setup removed.
func assemble(call *DrawCall, b int, rec *vertexBatch, seq *uint32, tris *triSlab, emit func(tri *raster.SetupTri, lanes [3]int)) (assembled, culled int) {
	var prim raster.Primitive
	var clipped [2]raster.Primitive
	from, to := batchTris(call, b)
	for k := from; k < to; k++ {
		pos := call.Mode.Tri(k)
		var lanes [3]int
		for i := range pos {
			lanes[i] = laneOf(call, b, pos[i])
			prim.V[i] = rec.results[lanes[i]]
		}
		assembled++
		n, _ := raster.ClipCullInto(prim, call.CullBack, &clipped)
		if n == 0 {
			culled++
			continue
		}
		for _, t := range clipped[:n] {
			tri := tris.next()
			if !raster.SetupInto(t, call.Viewport, tri) {
				culled++
				continue
			}
			tris.keep()
			tri.ID = *seq
			*seq++
			emit(tri, lanes)
		}
	}
	return assembled, culled
}

// rasterTiles appends tri's raster tiles to tiles, walking them
// TC-tile-blocked: coarse raster over 8x8 TC tiles, then the 2x2 raster
// tiles within each that the viewport and tri's bounding box reach. The
// TC engines then see a TC tile's raster tiles back to back and can
// coalesce them fully instead of thrashing between screen positions. A
// non-nil sm restricts the walk to the TC tiles it assigns to cluster
// (that cluster's share of the screen); the tiles it lets through keep
// their order in the unfiltered walk.
func rasterTiles(tri *raster.SetupTri, vp raster.Viewport, sm *gfx.ScreenMap, cluster int, tiles [][2]int) [][2]int {
	raster.CoarseRaster(tri, gfx.TCTilePx, func(cx, cy int) {
		if sm != nil && sm.ClusterOf(cx, cy) != cluster {
			return
		}
		for dy := 0; dy < gfx.TCTilePx; dy += raster.RasterTileSize {
			for dx := 0; dx < gfx.TCTilePx; dx += raster.RasterTileSize {
				tx, ty := cx+dx, cy+dy
				if tx >= vp.Width || ty >= vp.Height || tx+raster.RasterTileSize <= tri.X0 ||
					ty+raster.RasterTileSize <= tri.Y0 || tx >= tri.X1 || ty >= tri.Y1 {
					continue
				}
				tiles = append(tiles, [2]int{tx, ty})
			}
		}
	})
	return tiles
}

// memReader is the read path a vertex or texture fetch needs —
// satisfied by *mem.Memory (timed pipeline) and *mem.View (the
// functional executor's page-caching accessor).
type memReader interface {
	ReadU32(addr uint64) uint32
	ReadF32(addr uint64) float32
}

// vertexIO is the vertex shader's data path: attribute fetch from the
// vertex buffer, results into the batch record, texture sampling. It
// never writes the output vertex buffer: that transaction is timing
// only, and the timed vsEnv adds its address.
type vertexIO struct {
	m     *mem.Memory
	rd    memReader // m, or a page-caching view of it
	call  *DrawCall
	batch int          // the batch number
	rec   *vertexBatch // the batch's record
}

func (e *vertexIO) AttrIn(lane, slot int) ([4]float32, uint64) {
	var out [4]float32
	if lane >= batchLanes(e.call, e.batch) || slot >= len(e.call.AttrOffsets) {
		return out, 0
	}
	off := e.call.AttrOffsets[slot][0]
	count := e.call.AttrOffsets[slot][1]
	idx := e.call.Indices[lanePos(e.call, e.batch, lane)]
	addr := e.call.VertexBase + uint64(idx)*uint64(e.call.VertexStride) + uint64(off)
	for i := 0; i < int(count) && i < 4; i++ {
		out[i] = e.rd.ReadF32(addr + uint64(i)*4)
	}
	if slot == 0 && count < 4 {
		out[3] = 1 // homogeneous position
	}
	return out, addr
}

// store records a lane's output slot in the batch record; false means
// the lane holds no vertex.
func (e *vertexIO) store(lane, slot int, val [4]float32) bool {
	if lane >= batchLanes(e.call, e.batch) {
		return false
	}
	v := &e.rec.results[lane]
	if slot == 0 {
		v.Clip.X, v.Clip.Y, v.Clip.Z, v.Clip.W = val[0], val[1], val[2], val[3]
	} else if slot-1 < raster.MaxVaryings {
		v.Attrs[slot-1] = val
	}
	return true
}

func (e *vertexIO) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	return sampleTexture(e.rd, e.call, unit, u, v)
}
func (e *vertexIO) ZAddr(int) uint64    { return 0 }
func (e *vertexIO) CAddr(int) uint64    { return 0 }
func (e *vertexIO) ConstBase() uint64   { return e.call.UniformBase }
func (e *vertexIO) SharedMem() []byte   { return nil }
func (e *vertexIO) Memory() *mem.Memory { return e.m }

// fragmentIO is the fragment shader's data path: varyings from the
// attribute planes, texture sampling, and the in-shader ROP addresses
// on the bound surfaces.
type fragmentIO struct {
	m     *mem.Memory
	rd    memReader // m, or a page-caching view of it
	call  *DrawCall
	frags []raster.Fragment // one per lane
}

func (e *fragmentIO) AttrIn(lane, slot int) ([4]float32, uint64) {
	if lane >= len(e.frags) || slot < 1 || slot-1 >= raster.MaxVaryings {
		return [4]float32{}, 0
	}
	f := e.frags[lane]
	return f.Tri.AttrAt(slot-1, f.L0, f.L1, f.L2), 0
}

func (e *fragmentIO) OutWrite(lane, slot int, val [4]float32) uint64 { return 0 }

func (e *fragmentIO) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	return sampleTexture(e.rd, e.call, unit, u, v)
}

func (e *fragmentIO) ZAddr(lane int) uint64 {
	if lane >= len(e.frags) {
		return e.call.Depth.Base
	}
	f := e.frags[lane]
	return e.call.Depth.Addr(f.X, f.Y)
}

func (e *fragmentIO) CAddr(lane int) uint64 {
	if lane >= len(e.frags) {
		return e.call.Color.Base
	}
	f := e.frags[lane]
	return e.call.Color.Addr(f.X, f.Y)
}

func (e *fragmentIO) ConstBase() uint64   { return e.call.UniformBase }
func (e *fragmentIO) SharedMem() []byte   { return nil }
func (e *fragmentIO) Memory() *mem.Memory { return e.m }

// sampleTexture performs nearest or bilinear filtering with repeat
// wrapping, returning the filtered color and the texel addresses read.
func sampleTexture(m memReader, call *DrawCall, unit int, u, v float32) ([4]float32, [4]uint64) {
	var out [4]float32
	var addrs [4]uint64
	if unit >= len(call.Textures) {
		return out, addrs
	}
	t := call.Textures[unit]
	uu := u - floor32(u) // repeat wrap
	vv := v - floor32(v)

	if !t.Bilinear {
		tx := int(uu * float32(t.Width))
		ty := int(vv * float32(t.Height))
		if tx >= t.Width {
			tx = t.Width - 1
		}
		if ty >= t.Height {
			ty = t.Height - 1
		}
		addrs[0] = t.Addr(tx, ty)
		r, gg, b, a := shader.UnpackRGBA8(m.ReadU32(addrs[0]))
		return [4]float32{r, gg, b, a}, addrs
	}

	// Bilinear: sample the 2x2 footprint around the sample point.
	fx := uu*float32(t.Width) - 0.5
	fy := vv*float32(t.Height) - 0.5
	x0 := int(floor32(fx))
	y0 := int(floor32(fy))
	wx := fx - float32(x0)
	wy := fy - float32(y0)
	n := 0
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			addr := t.Addr(x0+dx, y0+dy)
			addrs[n] = addr
			n++
			r, gg, b, a := shader.UnpackRGBA8(m.ReadU32(addr))
			wgt := (1 - absf(wx-float32(dx))) * (1 - absf(wy-float32(dy)))
			out[0] += r * wgt
			out[1] += gg * wgt
			out[2] += b * wgt
			out[3] += a * wgt
		}
	}
	return out, addrs
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func floor32(x float32) float32 {
	i := float32(int32(x))
	if i > x {
		return i - 1
	}
	return i
}
