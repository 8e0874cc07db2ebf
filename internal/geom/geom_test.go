package geom

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"emerald/internal/mathx"
)

func checkMeshInvariants(t *testing.T, name string, m *Mesh) {
	t.Helper()
	if len(m.Positions) == 0 || m.TriangleCount() == 0 {
		t.Fatalf("%s: empty mesh", name)
	}
	if len(m.Indices)%3 != 0 {
		t.Fatalf("%s: index count %d not a multiple of 3", name, len(m.Indices))
	}
	for _, i := range m.Indices {
		if int(i) >= len(m.Positions) {
			t.Fatalf("%s: index %d out of range (%d verts)", name, i, len(m.Positions))
		}
	}
	if len(m.Normals) != len(m.Positions) {
		t.Fatalf("%s: %d normals for %d verts", name, len(m.Normals), len(m.Positions))
	}
	for i, n := range m.Normals {
		l := n.Len()
		if l != 0 && (l < 0.9 || l > 1.1) {
			t.Fatalf("%s: normal %d not unit length (%v)", name, i, l)
		}
	}
}

func TestAllGeneratorsProduceValidMeshes(t *testing.T) {
	gens := map[string]*Mesh{
		"cube":   Cube(),
		"plane":  Plane(4),
		"sphere": UVSphere(8, 12),
		"torus":  Torus(1, 0.3, 12, 8),
		"teapot": Teapot(),
		"blob":   Blob(12, 16, 3),
		"hall":   Hall(4),
		"fan":    TriangleFan(8),
		"chair":  Chair(),
		"mask":   Mask(),
	}
	for name, m := range gens {
		checkMeshInvariants(t, name, m)
	}
}

func TestCubeGeometry(t *testing.T) {
	c := Cube()
	if c.TriangleCount() != 12 {
		t.Fatalf("cube tris = %d, want 12", c.TriangleCount())
	}
	lo, hi := bounds(c)
	if lo != mathx.V3(-0.5, -0.5, -0.5) || hi != mathx.V3(0.5, 0.5, 0.5) {
		t.Fatalf("cube bounds = %v..%v", lo, hi)
	}
}

func TestSphereOnUnitShell(t *testing.T) {
	s := UVSphere(16, 24)
	for i, p := range s.Positions {
		l := p.Len()
		if l < 0.999 || l > 1.001 {
			t.Fatalf("vertex %d radius %v", i, l)
		}
	}
}

func TestTransformMovesBounds(t *testing.T) {
	c := Cube()
	c.Transform(mathx.Translate(10, 0, 0))
	lo, hi := bounds(c)
	if lo.X != 9.5 || hi.X != 10.5 {
		t.Fatalf("bounds after translate = %v..%v", lo, hi)
	}
}

func TestAppendRebasesIndices(t *testing.T) {
	a, b := Cube(), Cube()
	nVerts := len(a.Positions)
	nTris := a.TriangleCount()
	a.Append(b)
	if len(a.Positions) != 2*nVerts || a.TriangleCount() != 2*nTris {
		t.Fatal("append counts wrong")
	}
	checkMeshInvariants(t, "appended", a)
}

func TestInterleavedVertexData(t *testing.T) {
	c := Cube()
	data := c.InterleavedVertexData()
	if len(data) != len(c.Positions)*8 {
		t.Fatalf("interleaved len = %d, want %d", len(data), len(c.Positions)*8)
	}
	// First vertex: position matches.
	if data[0] != c.Positions[0].X || data[1] != c.Positions[0].Y || data[2] != c.Positions[0].Z {
		t.Fatal("interleaved position mismatch")
	}
	if VertexStrideBytes != 32 {
		t.Fatal("stride constant wrong")
	}
}

func TestTexturesDeterministic(t *testing.T) {
	a := Noise(32, 32, 7)
	b := Noise(32, 32, 7)
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			t.Fatal("noise texture not deterministic")
		}
	}
	ch := Checker(16, 16, 4, [4]byte{255, 0, 0, 255}, [4]byte{0, 255, 0, 255})
	if p := ch.Pixels[0:4]; p[0] != 255 || p[1] != 0 {
		t.Fatal("checker origin color wrong")
	}
	if p := ch.Pixels[16:20]; p[0] != 0 || p[1] != 255 {
		t.Fatal("checker alternation wrong")
	}
}

func TestTextureSetAt(t *testing.T) {
	f := func(x, y uint8, r, g, b, a byte) bool {
		tex := NewTexture(256, 256)
		tex.Set(int(x), int(y), r, g, b, a)
		i := (int(y)*tex.Width + int(x)) * 4
		return slices.Equal(tex.Pixels[i:i+4], []byte{r, g, b, a})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDFSLWorkloadsComplete(t *testing.T) {
	scenes := allScenes(dfslWorkloads)
	if len(scenes) != 6 {
		t.Fatalf("workloads = %d, want 6", len(scenes))
	}
	names := map[string]bool{}
	for _, s := range scenes {
		if s.Mesh == nil || s.Texture == nil {
			t.Fatalf("%s: missing assets", s.Name)
		}
		checkMeshInvariants(t, s.Name, s.Mesh)
		names[s.Name] = true
	}
	if len(names) != 6 {
		t.Fatal("workload names not distinct")
	}
	// W5 is the translucent variant (Table 8).
	w5, _ := DFSLWorkload(W5SuzanneT)
	if !w5.Translucent {
		t.Fatal("W5 must be translucent")
	}
	w1, _ := DFSLWorkload(W1Sibenik)
	if w1.Translucent {
		t.Fatal("W1 must be opaque")
	}
}

func TestSoCModelsComplete(t *testing.T) {
	models := allScenes(socModels)
	if len(models) != 4 {
		t.Fatalf("models = %d, want 4", len(models))
	}
	// Mask (M3) is the heaviest, Triangles (M4) the lightest in geometry.
	if models[2].Mesh.TriangleCount() <= models[3].Mesh.TriangleCount() {
		t.Fatal("M3 should out-weigh M4 in triangles")
	}
}

func TestCameraPathTemporalCoherence(t *testing.T) {
	s, _ := DFSLWorkload(W3Cube)
	m0 := s.MVP(0, 4.0/3.0)
	m1 := s.MVP(1, 4.0/3.0)
	m50 := s.MVP(50, 4.0/3.0)
	d01, d050 := matDiff(m0, m1), matDiff(m0, m50)
	if d01 == 0 {
		t.Fatal("camera must move between frames")
	}
	if d050 <= d01 {
		t.Fatal("camera drift must accumulate over frames")
	}
}

func matDiff(a, b mathx.Mat4) float32 {
	var d float32
	for i := range a {
		d += float32(math.Abs(float64(a[i] - b[i])))
	}
	return d
}

func TestUnknownSceneIDs(t *testing.T) {
	if _, err := DFSLWorkload(0); err == nil {
		t.Fatal("workload 0 should error")
	}
	if _, err := SoCModel(99); err == nil {
		t.Fatal("model 99 should error")
	}
}

// TestCatalogueMatchesBuilders: a name lookup answers exactly what the
// builder would, so a caller that only names or validates a workload
// never needs to build one.
func TestCatalogueMatchesBuilders(t *testing.T) {
	kinds := []struct {
		kind  string
		name  func(int) (string, error)
		build func(int) (*Scene, error)
	}{
		{"SoC model", SoCModelName, SoCModel},
		{"DFSL workload", DFSLWorkloadName, DFSLWorkload},
	}
	for _, k := range kinds {
		for id := -1; id <= 8; id++ {
			name, nerr := k.name(id)
			s, berr := k.build(id)
			switch {
			case (nerr == nil) != (berr == nil):
				t.Errorf("%s %d: name lookup error %v, builder error %v", k.kind, id, nerr, berr)
			case berr != nil:
				if want := fmt.Sprintf("geom: unknown %s %d", k.kind, id); nerr.Error() != want || berr.Error() != want {
					t.Errorf("%s %d: errors %q and %q, want %q", k.kind, id, nerr, berr, want)
				}
			case name != s.Name:
				t.Errorf("%s %d: name %q, built scene %q", k.kind, id, name, s.Name)
			}
		}
	}
}

func TestComputeNormalsFacesOutOnCube(t *testing.T) {
	c := Cube()
	c.ComputeNormals()
	// For a cube, smooth normals point away from the center.
	for i, p := range c.Positions {
		if c.Normals[i].Dot(p) <= 0 {
			t.Fatalf("normal %d points inward", i)
		}
	}
}

// bounds returns m's axis-aligned bounding box.
func bounds(m *Mesh) (lo, hi mathx.Vec3) {
	lo, hi = m.Positions[0], m.Positions[0]
	for _, p := range m.Positions[1:] {
		lo.X = mathx.Min(lo.X, p.X)
		lo.Y = mathx.Min(lo.Y, p.Y)
		lo.Z = mathx.Min(lo.Z, p.Z)
		hi.X = mathx.Max(hi.X, p.X)
		hi.Y = mathx.Max(hi.Y, p.Y)
		hi.Z = mathx.Max(hi.Z, p.Z)
	}
	return lo, hi
}

// allScenes builds every row of a catalogue in order.
func allScenes(c catalogue) []*Scene {
	out := make([]*Scene, len(c.rows))
	for i, w := range c.rows {
		out[i] = w.scene()
	}
	return out
}
