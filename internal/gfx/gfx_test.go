package gfx

import (
	"testing"
	"testing/quick"

	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/raster"
)

func TestSurfaceAddressing(t *testing.T) {
	s := Surface{Base: 0x1000, Width: 64, Height: 32}
	if s.Addr(0, 0) != 0x1000 {
		t.Fatal("origin address wrong")
	}
	if s.Addr(1, 0) != 0x1004 || s.Addr(0, 1) != 0x1000+64*4 {
		t.Fatal("stride wrong")
	}
	if s.SizeBytes() != 64*32*4 {
		t.Fatal("size wrong")
	}
}

// Property: consecutive pixels on a row have consecutive addresses
// (display scan-out is sequential).
func TestSurfaceRowSequential(t *testing.T) {
	f := func(x, y uint8) bool {
		s := Surface{Base: 0, Width: 300, Height: 300}
		xi, yi := int(x)%299, int(y)%300
		return s.Addr(xi+1, yi) == s.Addr(xi, yi)+4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSurfaceClearAndRead(t *testing.T) {
	m := mem.NewMemory()
	s := Surface{Base: 0x4000, Width: 16, Height: 16}
	s.ClearColor(m, 0xFF336699)
	if s.ReadPixel(m, 5, 9) != 0xFF336699 {
		t.Fatal("clear color not read back")
	}
	d := Surface{Base: 0x8000, Width: 16, Height: 16}
	d.ClearDepth(m, 1.0)
	if m.ReadF32(d.Addr(3, 3)) != 1.0 {
		t.Fatal("clear depth not read back")
	}
}

func TestScreenMapDeterminismAndRange(t *testing.T) {
	m := NewScreenMap(6, 1, 3)
	f := func(x, y uint16) bool {
		c1, k1 := m.OwnerOf(int(x), int(y))
		c2, k2 := m.OwnerOf(int(x), int(y))
		return c1 == c2 && k1 == k2 && c1 >= 0 && c1 < 6 && k1 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScreenMapConstantWithinWorkTile(t *testing.T) {
	m := NewScreenMap(4, 2, 2) // WT = 2 TC tiles = 16 px
	c0, k0 := m.OwnerOf(0, 0)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			c, k := m.OwnerOf(x, y)
			if c != c0 || k != k0 {
				t.Fatalf("owner changed within work tile at (%d,%d)", x, y)
			}
		}
	}
	// Next work tile differs.
	c1, k1 := m.OwnerOf(16, 0)
	if c1 == c0 && k1 == k0 {
		t.Fatal("adjacent work tiles must differ under round-robin")
	}
}

func TestScreenMapBalance(t *testing.T) {
	// With WT=1 over a large screen, every core gets a near-equal share
	// of TC tiles.
	m := NewScreenMap(6, 1, 1)
	counts := make([]int, 6)
	for ty := 0; ty < 64; ty++ {
		for tx := 0; tx < 64; tx++ {
			px, py := TCOrigin(tx, ty)
			counts[m.ClusterOf(px, py)]++
		}
	}
	total := 64 * 64
	for c, n := range counts {
		share := float64(n) / float64(total)
		if share < 0.10 || share > 0.23 { // ideal 1/6 = 0.167
			t.Fatalf("cluster %d share = %v, want near 1/6 (counts %v)", c, share, counts)
		}
	}
}

func TestClusterMaskSmallVsLargePrimitive(t *testing.T) {
	m := NewScreenMap(4, 1, 1)
	// Tiny primitive within one TC tile: exactly one cluster.
	mask := m.ClusterMask(2, 2, 5, 5)
	if popcount64(mask) != 1 {
		t.Fatalf("tiny prim mask = %b", mask)
	}
	// Screen-sized primitive: all clusters.
	mask = m.ClusterMask(0, 0, 512, 512)
	if mask != 0xF {
		t.Fatalf("huge prim mask = %b, want 1111", mask)
	}
}

func popcount64(m uint64) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// prims counts the distinct primitives a TC tile's fragments came from.
func prims(out *TCTileOut) int {
	ids := map[uint32]bool{}
	for _, f := range out.Frags {
		ids[f.Tri.ID] = true
	}
	return len(ids)
}

// mkRasterTile builds a raster tile at pixel origin (x,y) with the given
// coverage for primitive id.
func mkRasterTile(id uint32, x, y int, coverage uint16, z float32) *raster.RasterTile {
	tri := &raster.SetupTri{ID: id}
	rt := &raster.RasterTile{TileX: x, TileY: y, Coverage: coverage}
	for bit := 0; bit < 16; bit++ {
		if coverage&(1<<bit) != 0 {
			rt.Frags = append(rt.Frags, raster.Fragment{
				Tri: tri,
				X:   x + bit%4,
				Y:   y + bit/4,
				Z:   z,
			})
		}
	}
	return rt
}

func TestTCCoalescesNeighboringRasterTiles(t *testing.T) {
	u := NewTCUnit(DefaultTCConfig(), nil)
	// Four raster tiles of the same primitive filling one 8x8 TC tile.
	for _, off := range [][2]int{{0, 0}, {4, 0}, {0, 4}, {4, 4}} {
		u.Stage(mkRasterTile(1, off[0], off[1], raster.FullCoverage, 0.5), 0)
	}
	out := u.PopReady()
	if out == nil {
		t.Fatal("full TC tile must flush immediately")
	}
	if len(out.Frags) != 64 || !out.FullCover || prims(out) != 1 {
		t.Fatalf("coalesced tile: frags=%d full=%v prims=%d", len(out.Frags), out.FullCover, prims(out))
	}
	if out.MaxZ != 0.5 {
		t.Fatalf("maxZ = %v", out.MaxZ)
	}
}

func TestTCCoalescesAcrossPrimitives(t *testing.T) {
	u := NewTCUnit(DefaultTCConfig(), nil)
	// Two micro-primitives covering disjoint pixels of one TC tile.
	u.Stage(mkRasterTile(1, 0, 0, 0x0001, 0.3), 0)
	u.Stage(mkRasterTile(2, 4, 0, 0x0002, 0.4), 1)
	u.FlushAll()
	out := u.PopReady()
	if out == nil || prims(out) != 2 || len(out.Frags) != 2 {
		t.Fatalf("micro-prim coalescing broken: %+v", out)
	}
}

func TestTCConflictSplitsOverlap(t *testing.T) {
	u := NewTCUnit(DefaultTCConfig(), nil)
	// Same pixel covered by two primitives: must become two TC tiles,
	// in order.
	u.Stage(mkRasterTile(1, 0, 0, 0x0001, 0.3), 0)
	u.Stage(mkRasterTile(2, 0, 0, 0x0001, 0.4), 1)
	u.FlushAll()
	first := u.PopReady()
	if first == nil || prims(first) != 1 {
		t.Fatal("conflict must flush first tile alone")
	}
	// Same position in flight: second tile must wait.
	if u.PopReady() != nil {
		t.Fatal("second TC tile at same position must wait for completion")
	}
	u.Complete(first.TX, first.TY)
	second := u.PopReady()
	if second == nil || len(second.Frags) != 1 {
		t.Fatal("second tile must issue after completion")
	}
	if second.Frags[0].Tri.ID != 2 {
		t.Fatal("order violated: later primitive must come second")
	}
}

func TestTCTimeoutFlush(t *testing.T) {
	cfg := DefaultTCConfig()
	cfg.FlushTimeout = 10
	u := NewTCUnit(cfg, nil)
	u.Stage(mkRasterTile(1, 0, 0, 0x0001, 0.5), 0)
	u.Tick(5)
	if u.PopReady() != nil {
		t.Fatal("must not flush before timeout")
	}
	u.Tick(10)
	if u.PopReady() == nil {
		t.Fatal("timeout must flush staged tile")
	}
}

func TestTCEngineEviction(t *testing.T) {
	cfg := DefaultTCConfig()
	cfg.Engines = 2
	u := NewTCUnit(cfg, nil)
	// Three distinct TC tile positions with only two engines: the oldest
	// is evicted to ready.
	u.Stage(mkRasterTile(1, 0, 0, 0x0001, 0.5), 0)
	u.Stage(mkRasterTile(2, 8, 0, 0x0001, 0.5), 1)
	u.Stage(mkRasterTile(3, 16, 0, 0x0001, 0.5), 2)
	out := u.PopReady()
	if out == nil || out.TX != 0 {
		t.Fatalf("LRU engine (pos 0) should be evicted first, got %+v", out)
	}
}

func TestTCDrainedAndBackpressure(t *testing.T) {
	cfg := DefaultTCConfig()
	cfg.ReadyDepth = 1
	u := NewTCUnit(cfg, nil)
	if !u.Drained() {
		t.Fatal("fresh unit must be drained")
	}
	u.Stage(mkRasterTile(1, 0, 0, raster.FullCoverage, 0.5), 0)
	u.Stage(mkRasterTile(1, 4, 0, raster.FullCoverage, 0.5), 0)
	u.Stage(mkRasterTile(1, 0, 4, raster.FullCoverage, 0.5), 0)
	u.Stage(mkRasterTile(1, 4, 4, raster.FullCoverage, 0.5), 0)
	if u.CanStage() {
		t.Fatal("ready queue full: must backpressure")
	}
	if u.Drained() {
		t.Fatal("not drained with ready tiles")
	}
	tile := u.PopReady()
	u.Complete(tile.TX, tile.TY)
	if !u.Drained() {
		t.Fatal("drained after pop+complete")
	}
}

func TestSurfaceIntegrationWithRaster(t *testing.T) {
	// End-to-end sanity: rasterize a triangle, stage through TC, verify
	// every emitted fragment maps to a valid surface address.
	m := mem.NewMemory()
	s := Surface{Base: 0x10000, Width: 64, Height: 64}
	s.ClearColor(m, 0)
	var p raster.Primitive
	p.V[0].Clip = mathx.V4(-1, -1, 0, 1)
	p.V[1].Clip = mathx.V4(1, -1, 0, 1)
	p.V[2].Clip = mathx.V4(-1, 1, 0, 1)
	st, ok := raster.Setup(p, raster.Viewport{Width: 64, Height: 64})
	if !ok {
		t.Fatal("setup failed")
	}
	u := NewTCUnit(DefaultTCConfig(), nil)
	raster.Rasterize(st, raster.Viewport{Width: 64, Height: 64}, func(rt *raster.RasterTile) {
		u.Stage(rt, 0)
		for {
			tile := u.PopReady()
			if tile == nil {
				break
			}
			for _, f := range tile.Frags {
				if f.X < 0 || f.Y < 0 || f.X >= s.Width || f.Y >= s.Height {
					t.Fatalf("fragment out of surface: (%d,%d)", f.X, f.Y)
				}
				m.WriteU32(s.Addr(f.X, f.Y), 0xFFFFFFFF)
			}
			u.Complete(tile.TX, tile.TY)
		}
	})
	u.FlushAll()
	for {
		tile := u.PopReady()
		if tile == nil {
			break
		}
		for _, f := range tile.Frags {
			m.WriteU32(s.Addr(f.X, f.Y), 0xFFFFFFFF)
		}
		u.Complete(tile.TX, tile.TY)
	}
	// The lower-left half (y >= x, in the y-down viewport the triangle
	// covers roughly half the screen) must be painted.
	if s.ReadPixel(m, 2, 60) != 0xFFFFFFFF {
		t.Fatal("interior pixel not painted")
	}
	if s.ReadPixel(m, 60, 2) != 0 {
		t.Fatal("exterior pixel painted")
	}
}

// A released tile is poisoned and empty, a second release panics, and
// the next flush hands the tile out again with the staged fragments
// swapped in (the engine keeps the tile's emptied buffer).
func TestTCReleasePoisonsAndRecycles(t *testing.T) {
	u := NewTCUnit(DefaultTCConfig(), nil)
	u.Stage(mkRasterTile(1, 0, 0, 0x0003, 0.5), 0)
	u.FlushAll()
	tile := u.PopReady()
	if tile == nil || len(tile.Frags) != 2 {
		t.Fatalf("first tile: %+v", tile)
	}
	frags := tile.Frags[:cap(tile.Frags)]
	u.Complete(tile.TX, tile.TY)
	u.Release(tile)
	if !tile.released || tile.TX != releasedTile || tile.TY != releasedTile ||
		len(tile.Frags) != 0 || tile.FullCover || tile.MaxZ != 0 {
		t.Fatalf("released tile not poisoned: %+v", tile)
	}
	for i, f := range frags {
		if f != (raster.Fragment{}) {
			t.Fatalf("released tile still holds fragment %d: %+v", i, f)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release did not panic")
			}
		}()
		u.Release(tile)
	}()

	u.Stage(mkRasterTile(2, 8, 8, 0x0001, 0.25), 1)
	u.FlushAll()
	again := u.PopReady()
	if again != tile {
		t.Fatal("the flush after a release built a new tile instead of recycling it")
	}
	if again.released || again.TX != 1 || again.TY != 1 || len(again.Frags) != 1 ||
		again.Frags[0].Tri.ID != 2 || again.MaxZ != 0.25 {
		t.Fatalf("recycled tile: %+v", again)
	}
	if e := u.engines[0]; len(e.frags) != 0 || cap(e.frags) != cap(frags) {
		t.Fatalf("engine buffer after the swap: len %d cap %d, want 0 and the released tile's %d", len(e.frags), cap(e.frags), cap(frags))
	}
}
