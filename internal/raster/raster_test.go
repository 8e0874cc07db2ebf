package raster

import (
	"math/rand"
	"testing"

	"emerald/internal/mathx"
)

// tri builds a simple clip-space triangle at w=1 (already NDC-like).
func tri(id uint32, pts [3][2]float32, z float32) Primitive {
	var p Primitive
	p.ID = id
	for i := 0; i < 3; i++ {
		p.V[i].Clip = mathx.V4(pts[i][0], pts[i][1], z, 1)
	}
	return p
}

var vp = Viewport{Width: 64, Height: 64}

func TestAssembleModes(t *testing.T) {
	cases := []struct {
		mode PrimMode
		want [][3]int // triangles 0..3
	}{
		{Triangles, [][3]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}},
		// Odd strip triangles swap their first two vertices, so every
		// triangle keeps the winding of the first.
		{TriangleStrip, [][3]int{{0, 1, 2}, {2, 1, 3}, {2, 3, 4}, {4, 3, 5}}},
		// Every fan triangle starts at the hub.
		{TriangleFan, [][3]int{{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}}},
	}
	for _, c := range cases {
		for k, want := range c.want {
			if got := c.mode.Tri(k); got != want {
				t.Errorf("mode %d: Tri(%d) = %v, want %v", c.mode, k, got, want)
			}
		}
	}
}

func TestClipCullAccepts(t *testing.T) {
	p := tri(1, [3][2]float32{{-0.5, -0.5}, {0.5, -0.5}, {0, 0.5}}, 0)
	out, res := ClipCull(p, true)
	if res != Accepted || len(out) != 1 {
		t.Fatalf("res=%v out=%d", res, len(out))
	}
}

func TestClipCullFrustumReject(t *testing.T) {
	p := tri(1, [3][2]float32{{2, 2}, {3, 2}, {2, 3}}, 0) // fully right of x=w
	if _, res := ClipCull(p, true); res != CulledFrustum {
		t.Fatalf("res=%v, want frustum cull", res)
	}
}

func TestClipCullBackface(t *testing.T) {
	// Clockwise winding (negative area).
	p := tri(1, [3][2]float32{{-0.5, -0.5}, {0, 0.5}, {0.5, -0.5}}, 0)
	if _, res := ClipCull(p, true); res != CulledBackface {
		t.Fatalf("res=%v, want backface cull", res)
	}
	out, res := ClipCull(p, false)
	if res == CulledBackface || len(out) != 1 {
		t.Fatal("culling disabled must keep backfaces")
	}
}

func TestNearPlaneClipProducesValidW(t *testing.T) {
	// One vertex behind the eye (w+z < 0).
	var p Primitive
	p.V[0].Clip = mathx.V4(0, 0.8, -2, 1) // behind near
	p.V[1].Clip = mathx.V4(-1, -0.5, 0.5, 1)
	p.V[2].Clip = mathx.V4(1, -0.5, 0.5, 1)
	p.V[0].Attrs[0] = [4]float32{1, 0, 0, 1}
	p.V[1].Attrs[0] = [4]float32{0, 1, 0, 1}
	p.V[2].Attrs[0] = [4]float32{0, 0, 1, 1}
	out, res := ClipCull(p, false)
	if res != Clipped {
		t.Fatalf("res=%v, want clipped", res)
	}
	if len(out) < 1 || len(out) > 2 {
		t.Fatalf("clip output = %d triangles", len(out))
	}
	for _, q := range out {
		for i := 0; i < 3; i++ {
			if q.V[i].Clip.W+q.V[i].Clip.Z < 0 {
				t.Fatal("clipped vertex still behind near plane")
			}
		}
	}
}

func TestSetupBBoxAndArea(t *testing.T) {
	p := tri(1, [3][2]float32{{-1, -1}, {1, -1}, {-1, 1}}, 0)
	st, ok := Setup(p, vp)
	if !ok {
		t.Fatal("setup rejected valid triangle")
	}
	if st.X0 != 0 || st.Y0 != 0 || st.X1 != 64 || st.Y1 != 64 {
		t.Fatalf("bbox = (%d,%d)-(%d,%d)", st.X0, st.Y0, st.X1, st.Y1)
	}
	if st.Area == 0 {
		t.Fatal("area zero")
	}
}

func TestSetupRejectsDegenerate(t *testing.T) {
	p := tri(1, [3][2]float32{{0, 0}, {0, 0}, {0, 0}}, 0)
	if _, ok := Setup(p, vp); ok {
		t.Fatal("degenerate triangle accepted")
	}
}

// Property: fine-raster coverage agrees with a reference point-in-triangle
// test for random triangles.
func TestCoverageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		pts := [3][2]float32{}
		for i := range pts {
			pts[i] = [2]float32{rng.Float32()*2 - 1, rng.Float32()*2 - 1}
		}
		p := tri(uint32(iter), pts, 0)
		st, ok := Setup(p, vp)
		if !ok {
			continue
		}
		covered := map[[2]int]bool{}
		Rasterize(st, vp, func(rt *RasterTile) {
			for _, f := range rt.Frags {
				covered[[2]int{f.X, f.Y}] = true
			}
		})
		// Reference: direct barycentric test over the viewport.
		for py := 0; py < vp.Height; py++ {
			for px := 0; px < vp.Width; px++ {
				_, _, _, inside := st.Bary(px, py)
				if inside != covered[[2]int{px, py}] {
					t.Fatalf("iter %d: pixel (%d,%d) raster=%v reference=%v",
						iter, px, py, covered[[2]int{px, py}], inside)
				}
			}
		}
	}
}

func TestFragmentsCarryInterpolatedDepth(t *testing.T) {
	// Depth gradient from z=-0.5 (ndc) at left to 0.5 at right.
	var p Primitive
	p.V[0].Clip = mathx.V4(-1, -1, -0.5, 1)
	p.V[1].Clip = mathx.V4(1, -1, 0.5, 1)
	p.V[2].Clip = mathx.V4(-1, 1, -0.5, 1)
	st, ok := Setup(p, vp)
	if !ok {
		t.Fatal("setup failed")
	}
	// Probe two pixels on the bottom row (ndc y=-1 maps to the bottom in
	// the y-down viewport) via the interpolators directly.
	l0, l1, l2, inside := st.Bary(1, 62)
	if !inside {
		t.Fatal("left probe outside")
	}
	zLeft := st.DepthAt(l0, l1, l2)
	l0, l1, l2, inside = st.Bary(60, 62)
	if !inside {
		t.Fatal("right probe outside")
	}
	zRight := st.DepthAt(l0, l1, l2)
	if zLeft >= zRight {
		t.Fatalf("depth gradient wrong: left %v right %v", zLeft, zRight)
	}
}

func TestPerspectiveCorrectInterpolation(t *testing.T) {
	// Two vertices at w=1, one at w=4; attribute 0..1 gradient. With
	// perspective correction the midpoint value is NOT the linear 0.5.
	var p Primitive
	p.V[0].Clip = mathx.V4(-1, -1, 0, 1)
	p.V[1].Clip = mathx.V4(4, -4, 0, 4) // ndc (1,-1)
	p.V[2].Clip = mathx.V4(-1, 1, 0, 1)
	p.V[0].Attrs[0] = [4]float32{0, 0, 0, 0}
	p.V[1].Attrs[0] = [4]float32{1, 1, 1, 1}
	p.V[2].Attrs[0] = [4]float32{0, 0, 0, 0}
	st, ok := Setup(p, vp)
	if !ok {
		t.Fatal("setup failed")
	}
	l0, l1, l2, inside := st.Bary(16, 40)
	if !inside {
		t.Fatal("probe point outside")
	}
	v := st.AttrAt(0, l0, l1, l2)
	if v[0] <= 0 || v[0] >= 1 {
		t.Fatalf("interpolated = %v, want in (0,1)", v[0])
	}
	// Perspective-correct: value biased toward the w=1 vertices (< linear).
	linear := l1 * 1.0
	if v[0] >= linear {
		t.Fatalf("perspective correction missing: %v >= linear %v", v[0], linear)
	}
}

func TestCoarseRasterVisitsBBoxTiles(t *testing.T) {
	p := tri(1, [3][2]float32{{-1, -1}, {1, -1}, {-1, 1}}, 0)
	st, _ := Setup(p, vp)
	n := 0
	CoarseRaster(st, 16, func(tx, ty int) {
		if tx%16 != 0 || ty%16 != 0 {
			t.Fatalf("unaligned tile (%d,%d)", tx, ty)
		}
		n++
	})
	if n != 16 { // 64/16 = 4 tiles each way
		t.Fatalf("visited %d tiles, want 16", n)
	}
}

func TestHiZCulling(t *testing.T) {
	h := NewHiZ(vp, 16)
	// Initially everything passes.
	if !h.Test(5, 5, 0.9) {
		t.Fatal("fresh HiZ must not cull")
	}
	// Full-cover write at depth 0.3 lowers the tile max.
	h.Update(5, 5, 0.3, true)
	if h.maxZ[h.index(5, 5)] != 0.3 {
		t.Fatalf("tile max = %v", h.maxZ[h.index(5, 5)])
	}
	if h.Test(5, 5, 0.5) {
		t.Fatal("fragment behind tile max must be culled")
	}
	if !h.Test(5, 5, 0.1) {
		t.Fatal("fragment in front must pass")
	}
	// Partial cover must NOT update (conservative).
	h.Update(40, 40, 0.1, false)
	if h.maxZ[h.index(40, 40)] != 1 {
		t.Fatal("partial cover must not update HiZ")
	}
	if !h.Test(40, 40, 0.9) || !h.Test(-16, 5, 2) {
		t.Fatal("a tile never covered, or off the buffer, must pass")
	}
	h.Clear()
	if h.maxZ[h.index(5, 5)] != 1 || !h.Test(5, 5, 0.5) {
		t.Fatal("clear must reset")
	}
}

func TestHiZNeverCullsVisible(t *testing.T) {
	// Property: HiZ.Test(minZ) only culls when minZ > every depth the
	// tile has been fully covered with.
	rng := rand.New(rand.NewSource(3))
	h := NewHiZ(vp, 16)
	written := float32(1)
	for i := 0; i < 500; i++ {
		z := rng.Float32()
		if rng.Intn(2) == 0 {
			h.Update(8, 8, z, true)
			if z < written {
				written = z
			}
		} else {
			pass := h.Test(8, 8, z)
			if !pass && z <= written {
				t.Fatalf("culled a potentially visible fragment: z=%v written=%v", z, written)
			}
		}
	}
}

// Consecutive triangles share no vertex in a list, two in a strip, and
// the hub plus one in a fan — the overlap vertex batching must carry so
// a triangle never spans two vertex warps (paper §3.3.3).
func TestVertexOverlapPerMode(t *testing.T) {
	for mode, want := range map[PrimMode]int{Triangles: 0, TriangleStrip: 2, TriangleFan: 2} {
		for k := 0; k < 8; k++ {
			a, b := mode.Tri(k), mode.Tri(k+1)
			shared := 0
			for _, p := range a {
				for _, q := range b {
					if p == q {
						shared++
					}
				}
			}
			if shared != want {
				t.Fatalf("mode %d: triangles %d and %d share %d positions, want %d", mode, k, k+1, shared, want)
			}
		}
	}
}

func TestFullCoverageMask(t *testing.T) {
	// A huge triangle covers interior tiles fully.
	p := tri(1, [3][2]float32{{-3, -3}, {3, -3}, {0, 3}}, 0)
	st, _ := Setup(p, vp)
	full := 0
	Rasterize(st, vp, func(rt *RasterTile) {
		if rt.Coverage == FullCoverage {
			full++
			if len(rt.Frags) != 16 {
				t.Fatal("full coverage tile must have 16 fragments")
			}
		}
	})
	if full == 0 {
		t.Fatal("expected some fully covered tiles")
	}
}

// SetupInto on storage that held another triangle, front- or
// back-facing, leaves exactly what Setup builds fresh.
func TestSetupIntoReusedStorageMatchesSetup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused SetupTri
	for iter := 0; iter < 200; iter++ {
		var pts [3][2]float32
		for i := range pts {
			pts[i] = [2]float32{rng.Float32()*2.4 - 1.2, rng.Float32()*2.4 - 1.2}
		}
		p := tri(uint32(iter), pts, rng.Float32()-0.5)
		for i := range p.V {
			p.V[i].Attrs[iter%MaxVaryings] = [4]float32{rng.Float32(), rng.Float32(), 1, 0}
		}
		fresh, ok := Setup(p, vp)
		if SetupInto(p, vp, &reused) != ok {
			t.Fatalf("iter %d: SetupInto and Setup disagree on ok=%v", iter, ok)
		}
		if ok && reused != *fresh {
			t.Fatalf("iter %d: reused storage %+v, fresh %+v", iter, reused, *fresh)
		}
	}
}
