// Package geom provides the 3D assets the experiments render: triangle
// meshes, procedural generators standing in for the paper's test models
// (Table 6: Chair/Cube/Mask/Triangles; Table 8: Sibenik/Spot/Cube/
// Suzanne/Teapot), procedural textures, and camera paths with the
// temporal coherence DFSL exploits. The stand-ins are built to match the
// *load characteristics* of the originals — screen-space fragment
// distribution, depth complexity, texturing, translucency — rather than
// their artistic content (see DESIGN.md, substitutions).
package geom

import (
	"emerald/internal/mathx"
)

// Mesh is an indexed triangle mesh with per-vertex position, normal and
// texture coordinates.
type Mesh struct {
	Positions []mathx.Vec3
	Normals   []mathx.Vec3
	UVs       []mathx.Vec2
	Indices   []uint32 // triangle list, 3 per triangle
}

// TriangleCount returns the number of triangles.
func (m *Mesh) TriangleCount() int { return len(m.Indices) / 3 }

// Transform applies a matrix to all positions (and its rotation to
// normals, assuming uniform scale) in place.
func (m *Mesh) Transform(mat mathx.Mat4) {
	for i, p := range m.Positions {
		v := mat.MulVec(mathx.V4(p.X, p.Y, p.Z, 1))
		m.Positions[i] = v.XYZ()
	}
	for i, n := range m.Normals {
		v := mat.MulVec(mathx.V4(n.X, n.Y, n.Z, 0))
		m.Normals[i] = v.XYZ().Normalize()
	}
}

// Append merges other into m (indices rebased).
func (m *Mesh) Append(other *Mesh) {
	base := uint32(len(m.Positions))
	m.Positions = append(m.Positions, other.Positions...)
	m.Normals = append(m.Normals, other.Normals...)
	m.UVs = append(m.UVs, other.UVs...)
	for _, i := range other.Indices {
		m.Indices = append(m.Indices, base+i)
	}
}

// ComputeNormals recomputes smooth per-vertex normals from faces.
func (m *Mesh) ComputeNormals() {
	m.Normals = make([]mathx.Vec3, len(m.Positions))
	for i := 0; i+2 < len(m.Indices); i += 3 {
		a, b, c := m.Indices[i], m.Indices[i+1], m.Indices[i+2]
		pa, pb, pc := m.Positions[a], m.Positions[b], m.Positions[c]
		n := pb.Sub(pa).Cross(pc.Sub(pa))
		m.Normals[a] = m.Normals[a].Add(n)
		m.Normals[b] = m.Normals[b].Add(n)
		m.Normals[c] = m.Normals[c].Add(n)
	}
	for i := range m.Normals {
		m.Normals[i] = m.Normals[i].Normalize()
	}
}

// Vertex returns vertex i in the 32-byte interleaved format the GPU's
// vertex fetch consumes: position (3 floats), normal (3 floats), uv (2
// floats). A missing normal or uv reads as zeroes.
func (m *Mesh) Vertex(i int) [8]float32 {
	p := m.Positions[i]
	var n mathx.Vec3
	if i < len(m.Normals) {
		n = m.Normals[i]
	}
	var uv mathx.Vec2
	if i < len(m.UVs) {
		uv = m.UVs[i]
	}
	return [8]float32{p.X, p.Y, p.Z, n.X, n.Y, n.Z, uv.X, uv.Y}
}

// VertexStrideBytes is the byte stride of the interleaved format (Vertex).
const VertexStrideBytes = 32
