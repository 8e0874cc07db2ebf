package raster

import "emerald/internal/mathx"

// nearEps keeps clipped w strictly positive.
const nearEps = 1e-5

// CullResult describes what clipping & culling did with a primitive.
type CullResult uint8

// Cull outcomes.
const (
	Accepted CullResult = iota
	CulledFrustum
	CulledBackface
	CulledDegenerate
	Clipped
)

// ClipCull runs the clipping & culling stage (paper Figure 3, E) on one
// triangle: trivial frustum rejection, near-plane clipping (producing up
// to 2 triangles), and backface culling in screen space. cullBackfaces
// follows the GL state. Returned triangles have w > 0.
func ClipCull(p Primitive, cullBackfaces bool) ([]Primitive, CullResult) {
	var out [2]Primitive
	n, res := ClipCullInto(p, cullBackfaces, &out)
	if n == 0 {
		return nil, res
	}
	return out[:n], res
}

// ClipCullInto is ClipCull into caller-owned storage: the surviving
// triangles (at most two) go to out[:n].
func ClipCullInto(p Primitive, cullBackfaces bool, out *[2]Primitive) (n int, res CullResult) {
	// Trivial frustum rejection: all vertices outside one plane.
	allOut := func(test func(v mathx.Vec4) bool) bool {
		return test(p.V[0].Clip) && test(p.V[1].Clip) && test(p.V[2].Clip)
	}
	switch {
	case allOut(func(v mathx.Vec4) bool { return v.X > v.W }),
		allOut(func(v mathx.Vec4) bool { return v.X < -v.W }),
		allOut(func(v mathx.Vec4) bool { return v.Y > v.W }),
		allOut(func(v mathx.Vec4) bool { return v.Y < -v.W }),
		allOut(func(v mathx.Vec4) bool { return v.Z > v.W }),
		allOut(func(v mathx.Vec4) bool { return v.Z < -v.W }):
		return 0, CulledFrustum
	}

	// Near-plane clip (z >= -w, i.e. w+z >= 0) via Sutherland-Hodgman.
	tris, clipped := clipNear(p, out)
	if tris == 0 {
		return 0, CulledFrustum
	}

	// Backface cull per resulting triangle (signed area in NDC),
	// compacting the survivors to the front of out.
	for i := 0; i < tris; i++ {
		area := signedAreaNDC(&out[i])
		if area == 0 {
			continue
		}
		if cullBackfaces && area < 0 {
			continue
		}
		out[n] = out[i]
		n++
	}
	switch {
	case n == 0 && cullBackfaces:
		return 0, CulledBackface
	case n == 0:
		return 0, CulledDegenerate
	case clipped:
		return n, Clipped
	}
	return n, Accepted
}

// clipNear clips p against the near plane into out, emitting 1-2
// triangles: one plane cuts a triangle into a polygon of at most four
// vertices.
func clipNear(p Primitive, out *[2]Primitive) (n int, clipped bool) {
	dist := func(v *Vertex) float32 { return v.Clip.W + v.Clip.Z }
	inside := func(v *Vertex) bool { return dist(v) > nearEps }

	allIn := inside(&p.V[0]) && inside(&p.V[1]) && inside(&p.V[2])
	if allIn {
		out[0] = p
		return 1, false
	}

	var poly [4]Vertex
	np := 0
	for i := 0; i < 3; i++ {
		cur, nxt := &p.V[i], &p.V[(i+1)%3]
		if inside(cur) {
			poly[np] = *cur
			np++
		}
		if inside(cur) != inside(nxt) {
			t := dist(cur) / (dist(cur) - dist(nxt))
			poly[np] = lerpVertex(*cur, *nxt, t)
			np++
		}
	}
	for i := 1; i+1 < np; i++ {
		out[n] = Primitive{ID: p.ID, V: [3]Vertex{poly[0], poly[i], poly[i+1]}}
		n++
	}
	return n, true
}

func lerpVertex(a, b Vertex, t float32) Vertex {
	var v Vertex
	v.Clip = a.Clip.Lerp(b.Clip, t)
	for s := 0; s < MaxVaryings; s++ {
		for k := 0; k < 4; k++ {
			v.Attrs[s][k] = a.Attrs[s][k] + t*(b.Attrs[s][k]-a.Attrs[s][k])
		}
	}
	return v
}

// signedAreaNDC computes twice the signed area of the triangle in NDC
// (y up; positive = counter-clockwise = front-facing).
func signedAreaNDC(p *Primitive) float32 {
	n := [3]mathx.Vec4{
		p.V[0].Clip.PerspectiveDivide(),
		p.V[1].Clip.PerspectiveDivide(),
		p.V[2].Clip.PerspectiveDivide(),
	}
	return (n[1].X-n[0].X)*(n[2].Y-n[0].Y) - (n[2].X-n[0].X)*(n[1].Y-n[0].Y)
}
