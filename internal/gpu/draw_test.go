package gpu

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/gfx"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
)

func TestWarpPackingShortBatches(t *testing.T) {
	// A fan's second batch: the hub in lane 0, then the four positions
	// past the first batch's 30 fresh ones.
	call := &DrawCall{Mode: raster.TriangleFan, Indices: make([]uint32, 35)}
	for i := range call.Indices {
		call.Indices[i] = uint32(100 + i)
	}
	mask, sp := vsWarp(call, 1)
	if mask != 0b11111 {
		t.Fatalf("vertex mask = %#b, want 0b11111", mask)
	}
	for lane, want := range []uint32{100, 131, 132, 133, 134} {
		if s := sp[lane]; s.TID != uint32(lane) || s.NTID != 5 || s.VID != want {
			t.Fatalf("vertex lane %d specials = %+v, want TID %d NTID 5 VID %d", lane, s, lane, want)
		}
	}
	if sp[5] != (shader.Special{}) {
		t.Fatalf("inactive vertex lane has specials %+v", sp[5])
	}

	tri := &raster.SetupTri{ID: 42}
	frags := []raster.Fragment{{Tri: tri, X: 3, Y: 5, Z: 0.25}, {Tri: tri, X: 4, Y: 6, Z: 0.75}}
	mask, sp = fsWarp(frags)
	if mask != 0b11 {
		t.Fatalf("fragment mask = %#b, want 0b11", mask)
	}
	for lane, f := range frags {
		want := shader.Special{TID: uint32(lane), PX: uint32(f.X), PY: uint32(f.Y), Prim: 42, FZ: math.Float32bits(f.Z)}
		if sp[lane] != want {
			t.Fatalf("fragment lane %d specials = %+v, want %+v", lane, sp[lane], want)
		}
	}
	if mask, _ := fsWarp(nil); mask != 0 {
		t.Fatalf("empty fragment warp mask = %#b", mask)
	}
}

// The functional executor walks the whole screen where each timed
// cluster walks only its own TC tiles. That is the same work in the same
// per-pixel order only if the clusters' filtered walks partition the
// unfiltered one, each keeping its order.
func TestRasterTilesClusterWalksPartitionTheWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		vp := raster.Viewport{Width: 8 + rng.Intn(90), Height: 8 + rng.Intn(90)}
		var p raster.Primitive
		for i := range p.V {
			p.V[i].Clip = mathx.V4(rng.Float32()*3-1.5, rng.Float32()*3-1.5, 0, 1)
		}
		tri, ok := raster.Setup(p, vp)
		if !ok {
			continue
		}
		all := rasterTiles(tri, vp, nil, 0, nil)
		sm := gfx.NewScreenMap(6, 1, 1+rng.Intn(8))
		seen := map[[2]int]int{}
		for cl := 0; cl < 6; cl++ {
			next := 0 // position in all of the previous visit
			for _, pos := range rasterTiles(tri, vp, &sm, cl, nil) {
				for next < len(all) && all[next] != pos {
					next++
				}
				if next == len(all) {
					t.Fatalf("iter %d cluster %d: tile %v out of walk order", iter, cl, pos)
				}
				seen[pos]++
			}
		}
		if len(seen) != len(all) {
			t.Fatalf("iter %d: clusters visit %d distinct tiles, the walk %d", iter, len(seen), len(all))
		}
		for pos, n := range seen {
			if n != 1 {
				t.Fatalf("iter %d: tile %v visited by %d clusters", iter, pos, n)
			}
		}
	}
}

// Oracle address map: vertices, uniforms, the texture and both surfaces.
const (
	oVB    = 0x1000_0000
	oUni   = 0x2000_0000
	oTex   = 0x2100_0000
	oColor = 0x3000_0000
	oDepth = 0x3100_0000
	oVerts = 24 // vertex pool the random index streams draw from
)

// TestFunctionalMatchesTimedRandomDraws is the draw-level differential
// oracle: seeded random draws run in detail on the Table 7 GPU and
// through ExecuteDrawFunc on a mirror memory must leave byte-identical
// colour and depth surfaces, and agree on every count that timing does
// not decide. Fragment counts agree only where Hi-Z cannot cull (depth
// test off, or Hi-Z disabled). FS warp counts differ by design: the
// timed pipeline packs fragment warps per TC tile, the functional
// executor per primitive.
func TestFunctionalMatchesTimedRandomDraws(t *testing.T) {
	draws := 96
	if testing.Short() {
		draws = 48
	}
	rng := rand.New(rand.NewSource(24))
	s := DefaultStandalone(nil)
	ref := mem.NewMemory()
	both := func(f func(m *mem.Memory)) { f(s.Mem()); f(ref) }
	fss := []*shader.Program{shader.FSTexturedEarlyZ, shader.FSTexturedLateZ, shader.FSTexturedBlend, shader.FSFlat}
	modes := []raster.PrimMode{raster.Triangles, raster.TriangleStrip, raster.TriangleFan}
	var color, depth gfx.Surface
	var total FuncStats

	for n := 0; n < draws; n++ {
		// A new frame every fourth draw, so most draws land on what the
		// ones before wrote (and on the Hi-Z state they left).
		if n%4 == 0 {
			w, h := 9+rng.Intn(60), 9+rng.Intn(60) // rarely a tile multiple
			color = gfx.Surface{Base: oColor, Width: w, Height: h}
			depth = gfx.Surface{Base: oDepth, Width: w, Height: h}
			rgba := rng.Uint32()
			both(func(m *mem.Memory) { color.ClearColor(m, rgba); depth.ClearDepth(m, 1) })
			s.GPU.ClearHiZ()
			s.GPU.SetWT(1 + rng.Intn(8))
		}

		// Vertices: position, normal, uv (stride 32). Positions reach
		// past every clip plane; uvs past [0,1] to exercise the wrap.
		var vb [oVerts * 8]float32
		for i := range vb {
			switch i % 8 {
			case 0, 1:
				vb[i] = rng.Float32()*2.8 - 1.4
			case 2:
				vb[i] = rng.Float32()*2.6 - 1.3
			default:
				vb[i] = rng.Float32()*3 - 1
			}
		}
		mvp := mathx.Identity()
		if rng.Intn(2) == 0 {
			view := mathx.LookAt(mathx.V3(0, 0, 2.5), mathx.V3(0, 0, 0), mathx.V3(0, 1, 0))
			mvp = mathx.Perspective(1, 1, 0.1, 10).Mul(view).Mul(mathx.RotateY(rng.Float32() * 6))
		}
		tex := TextureBinding{Base: oTex, Width: 4 << rng.Intn(3), Height: 4 << rng.Intn(3), Bilinear: rng.Intn(2) == 0}
		texels := make([]uint32, tex.Width*tex.Height)
		for i := range texels {
			texels[i] = rng.Uint32()
		}
		light := [4]float32{rng.Float32()*2 - 1, rng.Float32()*2 - 1, rng.Float32()*2 - 1, 1}
		alpha := rng.Float32()
		both(func(m *mem.Memory) {
			for i, f := range vb {
				m.WriteF32(oVB+uint64(i*4), f)
			}
			for i, f := range mvp {
				m.WriteF32(oUni+uint64(i*4), f)
			}
			for i, f := range light {
				m.WriteF32(oUni+64+uint64(i*4), f)
			}
			m.WriteF32(oUni+80, alpha)
			for i, c := range texels {
				m.WriteU32(oTex+uint64(i*4), c)
			}
		})

		indices := make([]uint32, 3+rng.Intn(70))
		for i := range indices {
			indices[i] = uint32(rng.Intn(oVerts))
		}
		fs := fss[rng.Intn(len(fss))]
		call := &DrawCall{
			VS: shader.VSTransform, FS: fs,
			VertexBase: oVB, VertexStride: 32,
			AttrOffsets: [][2]uint32{{0, 3}, {12, 3}, {24, 2}},
			Indices:     indices,
			Mode:        modes[rng.Intn(len(modes))],
			UniformBase: oUni,
			Textures:    []TextureBinding{tex},
			Color:       color,
			Depth:       depth,
			DepthTest:   rng.Intn(2) == 0,
			DepthWrite:  rng.Intn(2) == 0,
			Blend:       fs == shader.FSTexturedBlend,
			CullBack:    rng.Intn(2) == 0,
			Viewport:    raster.Viewport{Width: color.Width, Height: color.Height},
		}
		s.GPU.Cfg.HiZ = rng.Intn(2) == 0

		names := []string{"prims_assembled", "prims_culled", "vs_warps", "fragments_shaded"}
		var before [4]int64
		for i, name := range names {
			before[i] = s.GPU.Reg.Value(name)
		}
		if _, err := renderDraw(s, call, 20_000_000); err != nil {
			t.Fatalf("draw %d: %v", n, err)
		}
		var fst FuncStats
		if err := ExecuteDrawFunc(ref, call, &fst); err != nil {
			t.Fatalf("draw %d: %v", n, err)
		}
		total.Prims += fst.Prims
		total.Culled += fst.Culled
		total.Frags += fst.Frags

		what := func() string {
			return fmt.Sprintf("draw %d (%s, mode %d, %d indices, %dx%d, WT %d, cull %v, depth test %v write %v, Hi-Z %v, bilinear %v)",
				n, fs.Name, call.Mode, len(indices), color.Width, color.Height, s.GPU.screenMap.WT,
				call.CullBack, call.DepthTest, call.DepthWrite, s.GPU.Cfg.HiZ, tex.Bilinear)
		}
		for _, sf := range []gfx.Surface{color, depth} {
			got, want := make([]byte, sf.SizeBytes()), make([]byte, sf.SizeBytes())
			s.Mem().Read(sf.Base, got)
			ref.Read(sf.Base, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: surface at %#x differs from ExecuteDrawFunc", what(), sf.Base)
			}
		}
		want := [4]uint64{fst.Prims, fst.Culled, fst.VSWarps, fst.Frags}
		for i, name := range names {
			if i == 3 && call.DepthTest && s.GPU.Cfg.HiZ {
				continue // Hi-Z may cull tiles the functional pass shades
			}
			if got := s.GPU.Reg.Value(name) - before[i]; uint64(got) != want[i] {
				t.Fatalf("%s: %s = %d, functional %d", what(), name, got, want[i])
			}
		}
	}
	t.Logf("%d draws: %d triangles assembled, %d culled, %d fragments, %d tiles culled by Hi-Z",
		draws, total.Prims, total.Culled, total.Frags, s.GPU.Reg.Value("hiz_culled_tiles"))
}

// Shaders for TestReusedBatchesLeakNothingBetweenDraws: a vertex shader
// that writes the clip position and no varying, and a fragment shader
// that shows varying 1 as its colour.
var (
	vsPositionOnly = shader.MustAssemble("vs_position_only", shader.KindVertex, `
	attr4 r0, 0
	out4  0, r0
	exit
`)
	fsShowVarying1 = shader.MustAssemble("fs_show_varying1", shader.KindFragment, `
	attr4 r0, 1
	pack4 r16, r0
	fbst  r16
	exit
`)
)

// A draw reuses the vertex batch records of the draw before it on the
// same GPU, so a record must start zeroed. The first draw's vertex
// shader writes two varyings, the second's none, and the second's
// fragment shader reads varying 1: the timed surfaces must still match
// ExecuteDrawFunc, which starts each draw with a zeroed record.
func TestReusedBatchesLeakNothingBetweenDraws(t *testing.T) {
	s := DefaultStandalone(nil)
	ref := mem.NewMemory()
	const vp = 32
	idx := []uint32{0, 1, 2, 0, 2, 3}
	for _, m := range []*mem.Memory{s.Mem(), ref} {
		gfx.Surface{Base: tColor, Width: vp, Height: vp}.ClearColor(m, 0xFF000000)
		gfx.Surface{Base: tDepth, Width: vp, Height: vp}.ClearDepth(m, 1)
		for i, f := range mathx.Identity() {
			m.WriteF32(tUniform+uint64(i*4), f)
		}
		for i, v := range [][8]float32{
			{-1, -1, 0, 0.9, 0.5, 0.25, 0, 0}, // x, y, z, normal, uv
			{1, -1, 0, 0.5, 0.25, 0.9, 1, 0},
			{1, 1, 0, 0.25, 0.9, 0.5, 1, 1},
			{-1, 1, 0, 0.9, 0.9, 0.9, 0, 1},
		} {
			for j, f := range v {
				m.WriteF32(tVB+uint64(i*32+j*4), f)
			}
		}
	}
	call := func(vs, fs *shader.Program) *DrawCall {
		return &DrawCall{
			VS: vs, FS: fs,
			VertexBase: tVB, VertexStride: 32,
			AttrOffsets: [][2]uint32{{0, 3}, {12, 3}, {24, 2}},
			Indices:     idx,
			UniformBase: tUniform,
			Color:       gfx.Surface{Base: tColor, Width: vp, Height: vp},
			Depth:       gfx.Surface{Base: tDepth, Width: vp, Height: vp},
			Viewport:    raster.Viewport{Width: vp, Height: vp},
		}
	}
	var first *vertexBatch
	for n, c := range []*DrawCall{call(shader.VSTransform, fsShowVarying1), call(vsPositionOnly, fsShowVarying1)} {
		if _, err := renderDraw(s, c, 5_000_000); err != nil {
			t.Fatal(err)
		}
		if err := ExecuteDrawFunc(ref, c, nil); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = &s.GPU.batches[0]
		} else if &s.GPU.batches[0] != first {
			t.Fatal("the second draw built a new batch: the test exercised no reuse")
		}
		got, want := make([]byte, c.Color.SizeBytes()), make([]byte, c.Color.SizeBytes())
		s.Mem().Read(tColor, got)
		ref.Read(tColor, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("draw %d: timed colour surface differs from ExecuteDrawFunc (pixel 0: %#x, want %#x)",
				n, c.Color.ReadPixel(s.Mem(), 0, 0), c.Color.ReadPixel(ref, 0, 0))
		}
	}
}

// TestBatchRingWrapsLikeFunctional draws long index streams, which wrap
// the ring of vertex batch records many times, in each topology on GPUs
// with VertexWindow 2 and 24. Each standalone draws twice: a vertex
// shader that writes two varyings, then one that writes none under a
// fragment shader that shows varying 1, so a reused record that keeps
// its last holder's varyings shows on the surface. After each draw the
// timed surfaces must match ExecuteDrawFunc's byte for byte, and the
// assembled and culled counts must not depend on the window.
func TestBatchRingWrapsLikeFunctional(t *testing.T) {
	const vp, nIdx = 40, 2100
	rng := rand.New(rand.NewSource(42))
	for _, mode := range []raster.PrimMode{raster.Triangles, raster.TriangleStrip, raster.TriangleFan} {
		// Small triangles: list triangles around their own centre, a
		// strip along a random walk, a fan about its hub.
		vb := make([]float32, nIdx*8)
		var cx, cy float32
		for i := 0; i < nIdx; i++ {
			if mode == raster.TriangleStrip || i%3 == 0 && mode == raster.Triangles {
				cx = min(max(cx+rng.Float32()*0.3-0.15, -1), 1)
				cy = min(max(cy+rng.Float32()*0.3-0.15, -1), 1)
				if mode == raster.Triangles {
					cx, cy = rng.Float32()*2.2-1.1, rng.Float32()*2.2-1.1
				}
			}
			v := vb[i*8 : i*8+8]
			v[0], v[1], v[2] = cx+rng.Float32()*0.3-0.15, cy+rng.Float32()*0.3-0.15, rng.Float32()*1.8-0.9
			for j := 3; j < 8; j++ {
				v[j] = rng.Float32()
			}
		}
		idx := make([]uint32, nIdx)
		for i := range idx {
			idx[i] = uint32(i)
		}
		call := func(vs, fs *shader.Program) *DrawCall {
			return &DrawCall{
				VS: vs, FS: fs, Mode: mode,
				VertexBase: tVB, VertexStride: 32,
				AttrOffsets: [][2]uint32{{0, 3}, {12, 3}, {24, 2}},
				Indices:     idx,
				UniformBase: tUniform,
				Color:       gfx.Surface{Base: tColor, Width: vp, Height: vp},
				Depth:       gfx.Surface{Base: tDepth, Width: vp, Height: vp},
				DepthTest:   true, DepthWrite: true,
				Viewport: raster.Viewport{Width: vp, Height: vp},
			}
		}
		draws := []*DrawCall{call(shader.VSTransform, fsShowVarying1), call(vsPositionOnly, fsShowVarying1)}
		var counts [2][2]int64
		for wi, window := range []int{2, 24} {
			cfg := CaseStudyIIConfig()
			cfg.VertexWindow = window
			s := NewStandalone(cfg, dram.Config{Geometry: dram.LPDDR3Geometry(4), Timing: dram.LPDDR3Timing(1600)}, nil)
			ref := mem.NewMemory()
			for _, m := range []*mem.Memory{s.Mem(), ref} {
				gfx.Surface{Base: tColor, Width: vp, Height: vp}.ClearColor(m, 0xFF000000)
				gfx.Surface{Base: tDepth, Width: vp, Height: vp}.ClearDepth(m, 1)
				for i, f := range mathx.Identity() {
					m.WriteF32(tUniform+uint64(i*4), f)
				}
				for i, f := range vb {
					m.WriteF32(tVB+uint64(i*4), f)
				}
			}
			for n, c := range draws {
				if _, err := renderDraw(s, c, 50_000_000); err != nil {
					t.Fatal(err)
				}
				if err := ExecuteDrawFunc(ref, c, nil); err != nil {
					t.Fatal(err)
				}
				for _, sf := range []gfx.Surface{c.Color, c.Depth} {
					got, want := make([]byte, sf.SizeBytes()), make([]byte, sf.SizeBytes())
					s.Mem().Read(sf.Base, got)
					ref.Read(sf.Base, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("mode %d, window %d, draw %d: surface at %#x differs from ExecuteDrawFunc", mode, window, n, sf.Base)
					}
				}
			}
			if len(s.GPU.batches) != window {
				t.Fatalf("mode %d, window %d: the GPU holds %d batch records", mode, window, len(s.GPU.batches))
			}
			counts[wi] = [2]int64{s.GPU.Reg.Value("prims_assembled"), s.GPU.Reg.Value("prims_culled")}
		}
		if counts[0] != counts[1] || counts[0][0] == 0 {
			t.Fatalf("mode %d: assembled, culled = %v at window 2, %v at window 24", mode, counts[0], counts[1])
		}
		t.Logf("mode %d: %d triangles assembled, %d culled per window", mode, counts[0][0], counts[0][1])
	}
}
