package raster

// HiZ is the Hierarchical-Z buffer (paper Figure 3, J): a low-resolution
// on-chip buffer holding, per screen tile, a conservative maximum of the
// depth values currently in the depth buffer. An incoming fragment tile
// whose minimum depth exceeds the stored maximum is provably occluded
// and can be discarded before fragment shading.
type HiZ struct {
	TileSize       int
	TilesX, TilesY int
	maxZ           []float32

	Tested, Culled int64 // stats
}

// NewHiZ builds a Hi-Z buffer for a vp using the given tile edge.
func NewHiZ(vp Viewport, tileSize int) *HiZ {
	tx := (vp.Width + tileSize - 1) / tileSize
	ty := (vp.Height + tileSize - 1) / tileSize
	h := &HiZ{TileSize: tileSize, TilesX: tx, TilesY: ty, maxZ: make([]float32, tx*ty)}
	h.Clear()
	return h
}

// Clear resets every tile to the far plane.
func (h *HiZ) Clear() {
	for i := range h.maxZ {
		h.maxZ[i] = 1
	}
	h.Tested = 0
	h.Culled = 0
}

func (h *HiZ) index(px, py int) int {
	tx := px / h.TileSize
	ty := py / h.TileSize
	if tx < 0 || tx >= h.TilesX || ty < 0 || ty >= h.TilesY {
		return -1
	}
	return ty*h.TilesX + tx
}

// Test reports whether a fragment tile with minimum depth minZ at pixel
// (px,py) might be visible. False means provably occluded.
func (h *HiZ) Test(px, py int, minZ float32) bool {
	h.Tested++
	i := h.index(px, py)
	if i < 0 {
		return true
	}
	if minZ > h.maxZ[i] {
		h.Culled++
		return false
	}
	return true
}

// Update lowers the tile's stored max depth after a depth write that
// covered the *entire* Hi-Z tile with maximum written depth z (the only
// update that is safe without re-reading the full-resolution buffer).
func (h *HiZ) Update(px, py int, tileMaxZ float32, fullCover bool) {
	if !fullCover {
		return
	}
	i := h.index(px, py)
	if i >= 0 && tileMaxZ < h.maxZ[i] {
		h.maxZ[i] = tileMaxZ
	}
}
