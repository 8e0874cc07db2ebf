// Package mathx provides the float32 linear algebra used throughout the
// simulator: small vectors, 4x4 matrices, and the projective transforms
// needed by the graphics pipeline. Everything is value-typed and
// allocation-free so it can sit on the hot path of the rasterizer and
// shader interpreter.
package mathx

import "math"

// Vec2 is a 2-component float32 vector.
type Vec2 struct{ X, Y float32 }

// Vec3 is a 3-component float32 vector.
type Vec3 struct{ X, Y, Z float32 }

// Vec4 is a 4-component float32 vector (homogeneous coordinates, RGBA).
type Vec4 struct{ X, Y, Z, W float32 }

// V2 constructs a Vec2.
func V2(x, y float32) Vec2 { return Vec2{x, y} }

// V3 constructs a Vec3.
func V3(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// V4 constructs a Vec4.
func V4(x, y, z, w float32) Vec4 { return Vec4{x, y, z, w} }

// Add returns v+u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v-u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns v*s.
func (v Vec3) Scale(s float32) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and u.
func (v Vec3) Dot(u Vec3) float32 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v x u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float32 { return Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// XYZ drops the W component.
func (v Vec4) XYZ() Vec3 { return Vec3{v.X, v.Y, v.Z} }

// PerspectiveDivide returns v/(v.W), with W preserved as 1/w for
// perspective-correct interpolation. A zero W is passed through untouched
// (the clipper guarantees w>0 for everything that reaches the rasterizer).
func (v Vec4) PerspectiveDivide() Vec4 {
	if v.W == 0 {
		return v
	}
	inv := 1 / v.W
	return Vec4{v.X * inv, v.Y * inv, v.Z * inv, inv}
}

// Lerp returns v + t*(u-v).
func (v Vec4) Lerp(u Vec4, t float32) Vec4 {
	return Vec4{
		v.X + t*(u.X-v.X),
		v.Y + t*(u.Y-v.Y),
		v.Z + t*(u.Z-v.Z),
		v.W + t*(u.W-v.W),
	}
}

// Sqrt is float32 square root.
func Sqrt(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// Floor is float32 floor.
func Floor(x float32) float32 { return float32(math.Floor(float64(x))) }

// Ceil is float32 ceiling.
func Ceil(x float32) float32 { return float32(math.Ceil(float64(x))) }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float32) float32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Min returns the smaller of a and b.
func Min(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
