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

// vertexBatch is one vertex warp's worth of index-stream positions
// (paper §3.3.3: overlapped vertex warps sized so primitives never span
// warps).
type vertexBatch struct {
	positions []int // index-stream positions, one per lane
	tris      []int // topology triangle numbers (PrimMode.Tri) assembled here
	results   [simt.WarpSize]raster.Vertex
	completed bool
	env       vsEnv // the timed vertex warp's environment
}

// batchStep is the number of fresh index positions per vertex warp; the
// remaining lanes hold topology-dependent overlap.
const batchStep = 30

// buildBatches splits the draw's index stream into vertex warps and
// assigns every assembled triangle to the single warp containing all
// three of its vertices. It reuses the batches (and their slices) of
// reuse, a previous draw's result that nothing references any more; a
// reused batch starts zeroed, results included, so a vertex shader that
// writes fewer varyings than the last one reads no stale value.
func buildBatches(call *DrawCall, reuse []*vertexBatch) []*vertexBatch {
	n := len(call.Indices)
	batches := reuse[:0]
	addBatch := func(from, to int) {
		var b *vertexBatch
		if k := len(batches); k < cap(batches) && batches[:k+1][k] != nil {
			b = batches[:k+1][k]
			*b = vertexBatch{positions: b.positions[:0], tris: b.tris[:0]}
		} else {
			b = &vertexBatch{}
		}
		for p := from; p < to; p++ {
			b.positions = append(b.positions, p)
		}
		batches = append(batches, b)
	}
	switch call.Mode {
	case raster.Triangles:
		for s := 0; s < n; s += batchStep {
			addBatch(s, min(s+batchStep, n))
		}
		for k := 0; k*3+2 < n; k++ {
			b := (k * 3) / batchStep
			batches[b].tris = append(batches[b].tris, k)
		}
	case raster.TriangleStrip:
		for s := 0; s < n-2; s += batchStep {
			addBatch(s, min(s+batchStep+2, n)) // 2-vertex overlap
		}
		for k := 0; k+2 < n; k++ {
			b := k / batchStep
			batches[b].tris = append(batches[b].tris, k)
		}
	case raster.TriangleFan:
		for s := 1; s < n-1; s += batchStep {
			// Lanes hold the hub vertex (replicated per warp), then
			// s..s+30, so triangle (0, s+29, s+30) fits: build s-1..s+30
			// and put the hub in lane 0.
			addBatch(s-1, min(s+batchStep+1, n))
			batches[len(batches)-1].positions[0] = 0
		}
		for k := 0; k+2 < n; k++ {
			b := k / batchStep
			batches[b].tris = append(batches[b].tris, k)
		}
	}
	return batches
}

// laneOf returns the lane within batch b holding index-stream position
// p, or -1.
func (b *vertexBatch) laneOf(p int) int {
	for i, q := range b.positions {
		if q == p {
			return i
		}
	}
	return -1
}

// The rest of this file is the one definition of what a draw computes,
// called by both executors: the timed pipeline (pipeline.go) decides
// when each step happens and on which core, cluster and cache; the
// functional executor (functional.go) runs the steps back to back and
// counts. Neither re-implements a step.

// vsWarp returns the lane mask and specials of batch b's vertex warp:
// one index-stream position per lane.
func vsWarp(call *DrawCall, b *vertexBatch) (mask uint32, specials [simt.WarpSize]shader.Special) {
	for lane := 0; lane < len(b.positions) && lane < simt.WarpSize; lane++ {
		mask |= 1 << lane
		specials[lane] = shader.Special{
			TID:  uint32(lane),
			NTID: uint32(len(b.positions)),
			VID:  call.Indices[b.positions[lane]],
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
// setup in draw order, sets each survivor up in a slot of tris,
// numbers it from *seq, and hands it to emit with the batch lanes of
// its three vertices. It returns how many triangles it assembled and
// how many of those clipping, backface culling or a degenerate setup
// removed.
func assemble(call *DrawCall, b *vertexBatch, seq *uint32, tris *triSlab, emit func(tri *raster.SetupTri, lanes [3]int)) (assembled, culled int) {
	var prim raster.Primitive
	var clipped [2]raster.Primitive
	for _, k := range b.tris {
		pos := call.Mode.Tri(k)
		var lanes [3]int
		ok := true
		for i := range pos {
			if lanes[i] = b.laneOf(pos[i]); lanes[i] < 0 {
				ok = false
				break
			}
			prim.V[i] = b.results[lanes[i]]
		}
		if !ok {
			continue
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
	m    *mem.Memory
	rd   memReader // m, or a page-caching view of it
	call *DrawCall
	b    *vertexBatch
}

func (e *vertexIO) AttrIn(lane, slot int) ([4]float32, uint64) {
	var out [4]float32
	if lane >= len(e.b.positions) || slot >= len(e.call.AttrOffsets) {
		return out, 0
	}
	off := e.call.AttrOffsets[slot][0]
	count := e.call.AttrOffsets[slot][1]
	idx := e.call.Indices[e.b.positions[lane]]
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
	if lane >= len(e.b.positions) {
		return false
	}
	if slot == 0 {
		e.b.results[lane].Clip.X = val[0]
		e.b.results[lane].Clip.Y = val[1]
		e.b.results[lane].Clip.Z = val[2]
		e.b.results[lane].Clip.W = val[3]
	} else if slot-1 < raster.MaxVaryings {
		e.b.results[lane].Attrs[slot-1] = val
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
