package mathx

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func close32(a, b, eps float32) bool { return abs32(a-b) <= eps }

func vecClose(a, b Vec4, eps float32) bool {
	return close32(a.X, b.X, eps) && close32(a.Y, b.Y, eps) &&
		close32(a.Z, b.Z, eps) && close32(a.W, b.W, eps)
}

func TestVec3Cross(t *testing.T) {
	x, y := V3(1, 0, 0), V3(0, 1, 0)
	if got := x.Cross(y); got != V3(0, 0, 1) {
		t.Fatalf("x cross y = %v, want (0,0,1)", got)
	}
	if got := y.Cross(x); got != V3(0, 0, -1) {
		t.Fatalf("y cross x = %v, want (0,0,-1)", got)
	}
}

func TestVec3Normalize(t *testing.T) {
	v := V3(3, 4, 0).Normalize()
	if !close32(v.Len(), 1, 1e-6) {
		t.Fatalf("normalized length %v, want 1", v.Len())
	}
	if z := V3(0, 0, 0).Normalize(); z != V3(0, 0, 0) {
		t.Fatalf("zero vector normalize = %v, want zero", z)
	}
}

// Property: cross product is perpendicular to both operands.
func TestCrossPerpendicularProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a, b := V3(ax, ay, az), V3(bx, by, bz)
		c := a.Cross(b)
		// Scale tolerance with magnitudes to stay robust for large inputs.
		tol := 1e-3 * (1 + a.Len()*b.Len())
		return abs32(c.Dot(a)) <= tol && abs32(c.Dot(b)) <= tol
	}
	cfg := &quick.Config{MaxCount: 200, Values: smallFloats(6)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMat4Identity(t *testing.T) {
	v := V4(1, 2, 3, 4)
	if got := Identity().MulVec(v); got != v {
		t.Fatalf("I*v = %v, want %v", got, v)
	}
}

func TestMat4MulAssociatesWithMulVec(t *testing.T) {
	m := Translate(1, 2, 3)
	n := ScaleM(2, 2, 2)
	v := V4(1, 1, 1, 1)
	a := m.Mul(n).MulVec(v)
	b := m.MulVec(n.MulVec(v))
	if !vecClose(a, b, 1e-5) {
		t.Fatalf("(mn)v=%v != m(nv)=%v", a, b)
	}
	if want := V4(3, 4, 5, 1); !vecClose(a, want, 1e-5) {
		t.Fatalf("translate(scale(v)) = %v, want %v", a, want)
	}
}

func TestRotationPreservesLength(t *testing.T) {
	f := func(angle, x, y, z float32) bool {
		v := V4(x, y, z, 0)
		for _, r := range []Mat4{RotateY(angle), RotateZ(angle)} {
			got := r.MulVec(v)
			l0, l1 := v.XYZ().Len(), got.XYZ().Len()
			if !close32(l0, l1, 1e-2*(1+l0)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: smallFloats(4)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLookAtMapsEyeToOrigin(t *testing.T) {
	eye := V3(5, 3, -2)
	m := LookAt(eye, V3(0, 0, 0), V3(0, 1, 0))
	got := m.MulVec(V4(eye.X, eye.Y, eye.Z, 1))
	if !vecClose(got, V4(0, 0, 0, 1), 1e-4) {
		t.Fatalf("lookAt(eye) = %v, want origin", got)
	}
}

func TestPerspectiveDepthRange(t *testing.T) {
	p := Perspective(1.2, 1.0, 1, 100)
	near := p.MulVec(V4(0, 0, -1, 1)).PerspectiveDivide()
	far := p.MulVec(V4(0, 0, -100, 1)).PerspectiveDivide()
	if !close32(near.Z, -1, 1e-4) {
		t.Fatalf("near plane maps to z=%v, want -1", near.Z)
	}
	if !close32(far.Z, 1, 1e-4) {
		t.Fatalf("far plane maps to z=%v, want 1", far.Z)
	}
}

func TestPerspectiveDivide(t *testing.T) {
	v := V4(2, 4, 6, 2).PerspectiveDivide()
	if !vecClose(v, V4(1, 2, 3, 0.5), 1e-6) {
		t.Fatalf("divide = %v", v)
	}
	z := V4(1, 2, 3, 0)
	if z.PerspectiveDivide() != z {
		t.Fatal("w=0 should pass through")
	}
}

func TestClampMinMax(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp broken")
	}
	if Min(2, 3) != 2 || Max(2, 3) != 3 {
		t.Fatal("min/max broken")
	}
}

func TestLerp(t *testing.T) {
	a, b := V4(0, 0, 0, 0), V4(2, 4, 6, 8)
	if got := a.Lerp(b, 0.5); !vecClose(got, V4(1, 2, 3, 4), 1e-6) {
		t.Fatalf("lerp = %v", got)
	}
}

func TestFloorCeil(t *testing.T) {
	if Floor(1.7) != 1 || Ceil(1.2) != 2 || Floor(-0.5) != -1 {
		t.Fatal("floor/ceil broken")
	}
}

// smallFloats returns a quick.Config value generator producing float32
// arguments bounded to a well-conditioned range, so property tests do not
// trip on float32 catastrophic cancellation with extreme inputs.
func smallFloats(n int) func([]reflect.Value, *rand.Rand) {
	return func(args []reflect.Value, r *rand.Rand) {
		for i := 0; i < n; i++ {
			args[i] = reflect.ValueOf(float32(r.Float64()*200 - 100))
		}
	}
}
