package gfx

// TCTilePx is the TC tile edge in pixels: 2x2 raster tiles of 4x4 pixels
// (paper Table 7).
const TCTilePx = 8

// ScreenMap statically assigns screen-space TC tiles to SIMT cores using
// a modular hash over (cluster, core), as validated against NVIDIA
// hardware in the paper (§3.4). Work-tile (WT) granularity groups WTxWT
// TC tiles into one assignment unit — the knob Case Study II sweeps:
// WT=1 maximizes load balance, large WT maximizes locality (Figure 15).
type ScreenMap struct {
	Clusters int
	CoresPer int
	WT       int // work-tile edge, in TC tiles (N >= 1)
}

// NewScreenMap builds a mapping; wt < 1 is clamped to 1.
func NewScreenMap(clusters, coresPer, wt int) ScreenMap {
	if wt < 1 {
		wt = 1
	}
	if clusters < 1 {
		clusters = 1
	}
	if coresPer < 1 {
		coresPer = 1
	}
	return ScreenMap{Clusters: clusters, CoresPer: coresPer, WT: wt}
}

// TCTile returns the TC-tile coordinates containing pixel (px, py).
func TCTile(px, py int) (tx, ty int) { return px / TCTilePx, py / TCTilePx }

// TCOrigin returns the pixel origin of the TC tile with coordinates
// (tx, ty).
func TCOrigin(tx, ty int) (px, py int) { return tx * TCTilePx, ty * TCTilePx }

// OwnerOf returns the (cluster, core) that shades pixel (px, py).
func (m ScreenMap) OwnerOf(px, py int) (cluster, core int) {
	tx, ty := TCTile(px, py)
	wx, wy := tx/m.WT, ty/m.WT
	// Modular hash over work tiles; the row offset decorrelates vertical
	// stripes so columns of WTs do not all land on the same core.
	n := wx + wy*7
	total := m.Clusters * m.CoresPer
	id := ((n % total) + total) % total
	return id % m.Clusters, id / m.Clusters
}

// ClusterOf returns just the owning cluster of a pixel.
func (m ScreenMap) ClusterOf(px, py int) int {
	c, _ := m.OwnerOf(px, py)
	return c
}

// ClusterMask computes the per-cluster coverage bit-mask of a bounding
// box (bit i set = cluster i must process the primitive).
func (m ScreenMap) ClusterMask(x0, y0, x1, y1 int) uint64 {
	var mask uint64
	step := TCTilePx * m.WT
	for ty := y0 - y0%step; ty < y1; ty += step {
		for tx := x0 - x0%step; tx < x1; tx += step {
			c := m.ClusterOf(max(tx, x0), max(ty, y0))
			mask |= 1 << c
			if mask == (uint64(1)<<m.Clusters)-1 {
				return mask // all clusters covered; stop early
			}
		}
	}
	return mask
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
