package raster

// RasterTileSize is the fine-raster tile edge in pixels (paper Table 7:
// 4x4 raster tiles).
const RasterTileSize = 4

// Fragment is one covered pixel produced by fine rasterization. It keeps
// a reference to its setup triangle plus the barycentrics, so fragment
// shading can lazily interpolate any varying.
type Fragment struct {
	Tri        *SetupTri
	X, Y       int
	Z          float32
	L0, L1, L2 float32
}

// RasterTile is the unit the fine rasterizer emits: the fragments of one
// primitive covering one 4x4 screen-aligned tile.
type RasterTile struct {
	TileX    int // tile origin in pixels
	TileY    int
	Frags    []Fragment
	Coverage uint16 // bit per pixel, row-major within the tile
}

// FullCoverage is the coverage mask of a completely covered raster tile.
const FullCoverage = uint16(0xFFFF)

// CoarseRaster enumerates the screen tiles (of the given tile size, in
// pixels) that the triangle's bounding box touches — the coarse
// rasterization stage (paper Figure 3, H). The callback receives tile
// origin coordinates.
func CoarseRaster(t *SetupTri, tileSize int, visit func(tx, ty int)) {
	x0 := t.X0 / tileSize * tileSize
	y0 := t.Y0 / tileSize * tileSize
	for ty := y0; ty < t.Y1; ty += tileSize {
		for tx := x0; tx < t.X1; tx += tileSize {
			visit(tx, ty)
		}
	}
}

// FineRasterTile tests the 16 pixels of the raster tile at (tileX,
// tileY) against the triangle and reports whether any is covered (paper
// Figure 3, I). It fills the caller's rt, reusing rt.Frags' storage.
// The viewport clamps pixel coordinates.
func FineRasterTile(t *SetupTri, tileX, tileY int, vp Viewport, rt *RasterTile) bool {
	frags := FineRasterInto(t, tileX, tileY, vp, rt.Frags[:0])
	*rt = RasterTile{TileX: tileX, TileY: tileY, Frags: frags}
	for _, f := range frags {
		rt.Coverage |= 1 << ((f.Y-tileY)*RasterTileSize + (f.X - tileX))
	}
	return len(frags) > 0
}

// FineRasterInto appends the covered fragments of the raster tile at
// (tileX, tileY) to frags and returns the extended slice — the
// allocation-free core of FineRasterTile, for callers that batch
// fragments across tiles themselves (the functional draw executor).
// Fragment order matches FineRasterTile exactly.
func FineRasterInto(t *SetupTri, tileX, tileY int, vp Viewport, frags []Fragment) []Fragment {
	for dy := 0; dy < RasterTileSize; dy++ {
		py := tileY + dy
		if py < 0 || py >= vp.Height {
			continue
		}
		for dx := 0; dx < RasterTileSize; dx++ {
			px := tileX + dx
			if px < 0 || px >= vp.Width {
				continue
			}
			l0, l1, l2, inside := t.Bary(px, py)
			if !inside {
				continue
			}
			frags = append(frags, Fragment{
				Tri: t, X: px, Y: py,
				Z:  t.DepthAt(l0, l1, l2),
				L0: l0, L1: l1, L2: l2,
			})
		}
	}
	return frags
}

// Rasterize runs coarse+fine rasterization over the whole triangle,
// emitting non-empty raster tiles in tile-scan order. Every emit gets
// the same tile, refilled: emit must copy what it keeps.
func Rasterize(t *SetupTri, vp Viewport, emit func(*RasterTile)) {
	var rt RasterTile
	CoarseRaster(t, RasterTileSize, func(tx, ty int) {
		if FineRasterTile(t, tx, ty, vp, &rt) {
			emit(&rt)
		}
	})
}
