package raster

import "emerald/internal/mathx"

// SetupTri is a screen-space triangle after primitive setup (paper
// Figure 3, G): screen coordinates, depth and perspective-corrected
// attribute planes, ready for rasterization.
type SetupTri struct {
	ID uint32

	// Screen-space vertex positions (pixels) and depth in [0,1].
	X, Y, Z [3]float32
	// InvW at each vertex for perspective-correct interpolation.
	InvW [3]float32
	// AttrOverW: varyings pre-divided by w at each vertex.
	AttrOverW [3][MaxVaryings][4]float32

	// Edge function area (2x signed) and bounding box (inclusive min,
	// exclusive max, clamped to the viewport).
	Area           float32
	X0, Y0, X1, Y1 int

	// edgeIn applies the top-left fill rule: whether a pixel exactly on
	// edge i counts as covered, so triangles sharing an edge never shade
	// a pixel twice nor leave a crack.
	edgeIn [3]bool
}

// Setup performs the viewport transform and attribute plane setup for a
// clipped primitive; ok=false means zero-area or out of viewport.
func Setup(p Primitive, vp Viewport) (*SetupTri, bool) {
	t := &SetupTri{}
	if !SetupInto(p, vp, t) {
		return nil, false
	}
	return t, true
}

// SetupInto is Setup into caller-owned storage: it overwrites every
// field of t. On false, t holds no triangle.
func SetupInto(p Primitive, vp Viewport, t *SetupTri) bool {
	t.ID = p.ID
	for i := 0; i < 3; i++ {
		ndc := p.V[i].Clip.PerspectiveDivide()
		// Viewport: x right, y down (framebuffer convention).
		t.X[i] = (ndc.X*0.5 + 0.5) * float32(vp.Width)
		t.Y[i] = (0.5 - ndc.Y*0.5) * float32(vp.Height)
		t.Z[i] = mathx.Clamp(ndc.Z*0.5+0.5, 0, 1)
		t.InvW[i] = ndc.W // PerspectiveDivide stores 1/w in W
		for s := 0; s < MaxVaryings; s++ {
			for k := 0; k < 4; k++ {
				t.AttrOverW[i][s][k] = p.V[i].Attrs[s][k] * t.InvW[i]
			}
		}
	}
	t.Area = (t.X[1]-t.X[0])*(t.Y[2]-t.Y[0]) - (t.X[2]-t.X[0])*(t.Y[1]-t.Y[0])
	if t.Area == 0 {
		return false
	}
	// Top-left rule: edge i (opposite vertex i) has gradient
	// (A, B) = d(edge_i)/d(x, y), sign-corrected for orientation so the
	// interior is the positive side. Include boundary pixels on "left"
	// edges (A > 0) and "top" edges (A == 0, B > 0); exclude the rest.
	sgn := float32(1)
	if t.Area < 0 {
		sgn = -1
	}
	for i := 0; i < 3; i++ {
		a, b := (i+1)%3, (i+2)%3
		A := (t.Y[a] - t.Y[b]) * sgn
		B := (t.X[b] - t.X[a]) * sgn
		t.edgeIn[i] = A > 0 || (A == 0 && B > 0)
	}

	minf := func(a, b, c float32) float32 { return mathx.Min(a, mathx.Min(b, c)) }
	maxf := func(a, b, c float32) float32 { return mathx.Max(a, mathx.Max(b, c)) }
	t.X0 = clampi(int(mathx.Floor(minf(t.X[0], t.X[1], t.X[2]))), 0, vp.Width)
	t.Y0 = clampi(int(mathx.Floor(minf(t.Y[0], t.Y[1], t.Y[2]))), 0, vp.Height)
	t.X1 = clampi(int(mathx.Ceil(maxf(t.X[0], t.X[1], t.X[2])))+1, 0, vp.Width)
	t.Y1 = clampi(int(mathx.Ceil(maxf(t.Y[0], t.Y[1], t.Y[2])))+1, 0, vp.Height)
	return t.X0 < t.X1 && t.Y0 < t.Y1
}

func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bary evaluates the barycentric coordinates of pixel center (px+0.5,
// py+0.5); inside is true when the point is within the triangle
// (inclusive top-left-ish rule via >= 0 on normalized coordinates).
func (t *SetupTri) Bary(px, py int) (l0, l1, l2 float32, inside bool) {
	x := float32(px) + 0.5
	y := float32(py) + 0.5
	e0 := (t.X[1]-x)*(t.Y[2]-y) - (t.X[2]-x)*(t.Y[1]-y) // opposite v0
	e1 := (t.X[2]-x)*(t.Y[0]-y) - (t.X[0]-x)*(t.Y[2]-y) // opposite v1
	e2 := (t.X[0]-x)*(t.Y[1]-y) - (t.X[1]-x)*(t.Y[0]-y) // opposite v2
	inv := 1 / t.Area
	l0, l1, l2 = e0*inv, e1*inv, e2*inv
	in := func(i int, l float32) bool {
		return l > 0 || (l == 0 && t.edgeIn[i])
	}
	inside = in(0, l0) && in(1, l1) && in(2, l2)
	return
}

// DepthAt interpolates depth at barycentrics (screen-space linear).
func (t *SetupTri) DepthAt(l0, l1, l2 float32) float32 {
	return l0*t.Z[0] + l1*t.Z[1] + l2*t.Z[2]
}

// AttrAt interpolates varying slot with perspective correction.
func (t *SetupTri) AttrAt(slot int, l0, l1, l2 float32) [4]float32 {
	invW := l0*t.InvW[0] + l1*t.InvW[1] + l2*t.InvW[2]
	var out [4]float32
	if invW == 0 {
		return out
	}
	w := 1 / invW
	for k := 0; k < 4; k++ {
		out[k] = (l0*t.AttrOverW[0][slot][k] +
			l1*t.AttrOverW[1][slot][k] +
			l2*t.AttrOverW[2][slot][k]) * w
	}
	return out
}
