package mathx

import "math"

// Mat4 is a 4x4 float32 matrix stored in column-major order, matching the
// OpenGL convention: element (row r, col c) is at index c*4+r.
type Mat4 [16]float32

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Mul returns m*n (column-vector convention: (m.Mul(n)).MulVec(v) ==
// m.MulVec(n.MulVec(v))).
func (m Mat4) Mul(n Mat4) Mat4 {
	var r Mat4
	for c := 0; c < 4; c++ {
		for row := 0; row < 4; row++ {
			var s float32
			for k := 0; k < 4; k++ {
				s += m[k*4+row] * n[c*4+k]
			}
			r[c*4+row] = s
		}
	}
	return r
}

// MulVec returns m*v.
func (m Mat4) MulVec(v Vec4) Vec4 {
	return Vec4{
		m[0]*v.X + m[4]*v.Y + m[8]*v.Z + m[12]*v.W,
		m[1]*v.X + m[5]*v.Y + m[9]*v.Z + m[13]*v.W,
		m[2]*v.X + m[6]*v.Y + m[10]*v.Z + m[14]*v.W,
		m[3]*v.X + m[7]*v.Y + m[11]*v.Z + m[15]*v.W,
	}
}

// Translate returns a translation matrix.
func Translate(x, y, z float32) Mat4 {
	m := Identity()
	m[12], m[13], m[14] = x, y, z
	return m
}

// ScaleM returns a scaling matrix.
func ScaleM(x, y, z float32) Mat4 {
	m := Identity()
	m[0], m[5], m[10] = x, y, z
	return m
}

// RotateY returns a rotation matrix about the Y axis (angle in radians).
func RotateY(a float32) Mat4 {
	s, c := sincos(a)
	m := Identity()
	m[0], m[8] = c, s
	m[2], m[10] = -s, c
	return m
}

// RotateZ returns a rotation matrix about the Z axis (angle in radians).
func RotateZ(a float32) Mat4 {
	s, c := sincos(a)
	m := Identity()
	m[0], m[4] = c, -s
	m[1], m[5] = s, c
	return m
}

func sincos(a float32) (sin, cos float32) {
	s, c := math.Sincos(float64(a))
	return float32(s), float32(c)
}

// Perspective returns an OpenGL-style perspective projection matrix.
// fovy is the vertical field of view in radians; near/far are positive
// distances to the clip planes.
func Perspective(fovy, aspect, near, far float32) Mat4 {
	f := float32(1 / math.Tan(float64(fovy)/2))
	var m Mat4
	m[0] = f / aspect
	m[5] = f
	m[10] = (far + near) / (near - far)
	m[11] = -1
	m[14] = 2 * far * near / (near - far)
	return m
}

// LookAt returns a view matrix placing the camera at eye, looking at
// center, with the given up vector.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.Cross(up.Normalize()).Normalize()
	u := s.Cross(f)
	m := Identity()
	m[0], m[4], m[8] = s.X, s.Y, s.Z
	m[1], m[5], m[9] = u.X, u.Y, u.Z
	m[2], m[6], m[10] = -f.X, -f.Y, -f.Z
	return m.Mul(Translate(-eye.X, -eye.Y, -eye.Z))
}
