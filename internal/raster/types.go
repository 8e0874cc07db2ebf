// Package raster implements the fixed-function geometry and raster
// stages of the Emerald pipeline (paper Figure 3, stages D-J): primitive
// assembly, clipping & culling, primitive setup, coarse rasterization
// over screen tiles, fine rasterization into 4x4 raster tiles, and the
// Hierarchical-Z buffer.
package raster

import "emerald/internal/mathx"

// MaxVaryings is the number of vec4 attributes carried from vertex to
// fragment shading (position excluded).
const MaxVaryings = 4

// Vertex is a post-vertex-shading vertex: a clip-space position plus
// varyings.
type Vertex struct {
	Clip  mathx.Vec4
	Attrs [MaxVaryings][4]float32
}

// Primitive is an assembled triangle.
type Primitive struct {
	ID uint32 // draw-order id (PMRB ordering key)
	V  [3]Vertex
}

// Viewport describes the render target mapping.
type Viewport struct {
	Width, Height int
}

// PrimMode enumerates supported OpenGL primitive topologies.
type PrimMode uint8

// Primitive topologies.
const (
	Triangles PrimMode = iota
	TriangleStrip
	TriangleFan
)

// Tri returns the index-stream positions of triangle k under the
// topology: odd strip triangles swap their first two vertices to keep
// the winding, and every fan triangle starts at the hub, position 0.
func (m PrimMode) Tri(k int) [3]int {
	switch m {
	case TriangleStrip:
		if k%2 == 1 {
			return [3]int{k + 1, k, k + 2}
		}
		return [3]int{k, k + 1, k + 2}
	case TriangleFan:
		return [3]int{0, k + 1, k + 2}
	}
	return [3]int{k * 3, k*3 + 1, k*3 + 2}
}
