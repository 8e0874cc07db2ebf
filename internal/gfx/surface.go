// Package gfx implements the graphics-specific hardware around the SIMT
// cores (paper Figures 5-7): render surfaces in simulated memory, the
// screen-space tile-to-core mapping with its work-tile (WT) granularity
// knob, the VPO unit's bounding-box/primitive-mask calculations, and the
// tile-coalescing (TC) stage.
package gfx

import (
	"encoding/binary"
	"math"

	"emerald/internal/mem"
)

// Surface is a 2D render target (color or depth) living in simulated
// memory. Color surfaces are packed RGBA8 (4 B/px); depth surfaces are
// float32 (4 B/px).
type Surface struct {
	Base          uint64
	Width, Height int
}

// BytesPerPixel is fixed at 4 for both RGBA8 color and f32 depth.
const BytesPerPixel = 4

// Addr returns the address of pixel (x, y); the layout is row-major
// linear, which makes display scan-out sequential (the property HMC's
// IP-channel mapping assumes).
func (s Surface) Addr(x, y int) uint64 {
	return s.Base + uint64(y*s.Width+x)*BytesPerPixel
}

// SizeBytes returns the surface footprint.
func (s Surface) SizeBytes() int { return s.Width * s.Height * BytesPerPixel }

// ClearColor functionally fills a color surface with a packed RGBA8
// value.
func (s Surface) ClearColor(m *mem.Memory, rgba uint32) {
	row := make([]byte, s.Width*4)
	for x := 0; x < s.Width; x++ {
		row[x*4] = byte(rgba)
		row[x*4+1] = byte(rgba >> 8)
		row[x*4+2] = byte(rgba >> 16)
		row[x*4+3] = byte(rgba >> 24)
	}
	for y := 0; y < s.Height; y++ {
		m.Write(s.Addr(0, y), row)
	}
}

// ClearDepth functionally fills a depth surface with a float32 value,
// row-buffered like ClearColor so the fill runs at page-copy speed
// instead of one page lookup per pixel.
func (s Surface) ClearDepth(m *mem.Memory, z float32) {
	row := make([]byte, s.Width*4)
	bits := math.Float32bits(z)
	for x := 0; x < s.Width; x++ {
		binary.LittleEndian.PutUint32(row[x*4:], bits)
	}
	for y := 0; y < s.Height; y++ {
		m.Write(s.Addr(0, y), row)
	}
}

// ReadPixel returns the packed RGBA8 value at (x, y) of a color surface.
func (s Surface) ReadPixel(m *mem.Memory, x, y int) uint32 {
	return m.ReadU32(s.Addr(x, y))
}
