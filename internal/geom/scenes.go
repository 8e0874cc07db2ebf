package geom

import (
	"fmt"

	"emerald/internal/mathx"
)

// Scene bundles one renderable workload: geometry, texture, render state
// and a camera path. Frame-to-frame the camera moves slightly — the
// temporal coherence (Scherzer et al.) that DFSL exploits.
type Scene struct {
	Name        string
	Mesh        *Mesh
	Texture     *Texture
	Translucent bool // enable blending (disables early-Z benefits)
	// Eye/Center/Up at frame 0; the path orbits slowly.
	Eye, Center, Up mathx.Vec3
	FovY            float32
	Near, Far       float32
	// OrbitPerFrame is the camera orbit step in radians per frame.
	OrbitPerFrame float32
}

// ViewProj returns the view and projection matrices for a frame index
// at the given aspect ratio.
func (s *Scene) ViewProj(frame int, aspect float32) (view, proj mathx.Mat4) {
	angle := s.OrbitPerFrame * float32(frame)
	rot := mathx.RotateY(angle)
	eye4 := rot.MulVec(mathx.V4(s.Eye.X, s.Eye.Y, s.Eye.Z, 1))
	view = mathx.LookAt(eye4.XYZ(), s.Center, s.Up)
	proj = mathx.Perspective(s.FovY, aspect, s.Near, s.Far)
	return view, proj
}

// MVP returns proj*view for a frame (the scenes use identity model
// transforms; meshes are pre-placed in world space).
func (s *Scene) MVP(frame int, aspect float32) mathx.Mat4 {
	v, p := s.ViewProj(frame, aspect)
	return p.Mul(v)
}

// DFSL workload identifiers (paper Table 8).
const (
	W1Sibenik  = iota + 1 // textured hall, high depth complexity
	W2Spot                // textured organic model
	W3Cube                // textured cube
	W4Suzanne             // textured organic model
	W5SuzanneT            // translucent Suzanne (blending on)
	W6Teapot              // textured teapot
)

// SoC model identifiers (paper Table 6, Case Study I).
const (
	M1Chair = iota + 1
	M2Cube
	M3Mask
	M4Triangles
)

// workload is one catalogue row: a scene's name and the function that
// builds its mesh, texture and camera. Naming or validating a workload
// reads the row; only a simulation calls build.
type workload struct {
	name  string
	build func() *Scene
}

// catalogue is one kind's workload table; row i describes id i+1.
type catalogue struct {
	kind string // names the kind in the unknown-id error
	rows []workload
}

var (
	dfslWorkloads = catalogue{"DFSL workload", []workload{
		{"W1-sibenik", sibenikScene},
		{"W2-spot", spotScene},
		{"W3-cube", cubeScene},
		{"W4-suzanne", suzanneScene},
		{"W5-suzanne-transparent", func() *Scene {
			s := suzanneScene()
			s.Translucent = true
			return s
		}},
		{"W6-teapot", teapotScene},
	}}
	socModels = catalogue{"SoC model", []workload{
		{"M1-chair", chairScene},
		{"M2-cube", func() *Scene {
			s := cubeScene()
			s.OrbitPerFrame = 0.03
			return s
		}},
		{"M3-mask", maskScene},
		{"M4-triangles", trianglesScene},
	}}
)

func (c catalogue) row(id int) (workload, error) {
	if id < 1 || id > len(c.rows) {
		return workload{}, fmt.Errorf("geom: unknown %s %d", c.kind, id)
	}
	return c.rows[id-1], nil
}

func (w workload) scene() *Scene {
	s := w.build()
	s.Name = w.name
	return s
}

func (c catalogue) scene(id int) (*Scene, error) {
	w, err := c.row(id)
	if err != nil {
		return nil, err
	}
	return w.scene(), nil
}

// DFSLWorkload builds one of the paper's Case Study II workloads W1-W6.
func DFSLWorkload(id int) (*Scene, error) { return dfslWorkloads.scene(id) }

// DFSLWorkloadName returns the name DFSLWorkload(id) gives its scene,
// and the same error for an unknown id, without building anything.
func DFSLWorkloadName(id int) (string, error) {
	w, err := dfslWorkloads.row(id)
	return w.name, err
}

// SoCModel builds one of the Case Study I Android-app models M1-M4.
func SoCModel(id int) (*Scene, error) { return socModels.scene(id) }

// SoCModelName returns the name SoCModel(id) gives its scene, and the
// same error for an unknown id, without building anything.
func SoCModelName(id int) (string, error) {
	w, err := socModels.row(id)
	return w.name, err
}

func sibenikScene() *Scene {
	return &Scene{
		Mesh:          Hall(6),
		Texture:       Checker(256, 256, 8, [4]byte{200, 180, 150, 255}, [4]byte{90, 80, 70, 255}),
		Eye:           mathx.V3(0, 2, 13),
		Center:        mathx.V3(0, 1.8, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          1.1,
		Near:          0.3,
		Far:           80,
		OrbitPerFrame: 0.012,
	}
}

func spotScene() *Scene {
	return &Scene{
		Mesh:          Blob(28, 36, 11),
		Texture:       Checker(256, 256, 16, [4]byte{240, 240, 240, 255}, [4]byte{30, 30, 30, 255}),
		Eye:           mathx.V3(0.6, 0.8, 3.0),
		Center:        mathx.V3(0, 0, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          0.9,
		Near:          0.3,
		Far:           30,
		OrbitPerFrame: 0.02,
	}
}

func cubeScene() *Scene {
	return &Scene{
		Mesh:          Cube(),
		Texture:       Noise(256, 256, 99),
		Eye:           mathx.V3(1.2, 1.0, 1.6),
		Center:        mathx.V3(0, 0, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          0.8,
		Near:          0.3,
		Far:           20,
		OrbitPerFrame: 0.02,
	}
}

func suzanneScene() *Scene {
	return &Scene{
		Mesh:          Blob(32, 44, 3),
		Texture:       Gradient(256, 256, [4]byte{220, 120, 60, 255}, [4]byte{60, 80, 200, 255}),
		Eye:           mathx.V3(-0.8, 0.4, 3.2),
		Center:        mathx.V3(0, 0, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          0.9,
		Near:          0.3,
		Far:           30,
		OrbitPerFrame: 0.018,
	}
}

func teapotScene() *Scene {
	return &Scene{
		Mesh:          Teapot(),
		Texture:       Checker(256, 256, 12, [4]byte{255, 255, 255, 255}, [4]byte{180, 40, 40, 255}),
		Eye:           mathx.V3(1.6, 1.3, 2.2),
		Center:        mathx.V3(0, 0.5, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          0.9,
		Near:          0.3,
		Far:           30,
		OrbitPerFrame: 0.02,
	}
}

func chairScene() *Scene {
	return &Scene{
		Mesh:          Chair(),
		Texture:       Checker(128, 128, 8, [4]byte{160, 110, 60, 255}, [4]byte{120, 80, 40, 255}),
		Eye:           mathx.V3(2.2, 2.0, 2.8),
		Center:        mathx.V3(0, 0.6, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          0.9,
		Near:          0.3,
		Far:           30,
		OrbitPerFrame: 0.03,
	}
}

func maskScene() *Scene {
	return &Scene{
		Mesh:          Mask(),
		Texture:       Noise(256, 256, 7),
		Eye:           mathx.V3(0, 0.3, 2.6),
		Center:        mathx.V3(0, 0, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          1.0,
		Near:          0.3,
		Far:           30,
		OrbitPerFrame: 0.03,
	}
}

func trianglesScene() *Scene {
	return &Scene{
		Mesh:          TriangleFan(12),
		Texture:       Gradient(64, 64, [4]byte{255, 0, 0, 255}, [4]byte{0, 0, 255, 255}),
		Eye:           mathx.V3(0, 0, 2.4),
		Center:        mathx.V3(0, 0, 0),
		Up:            mathx.V3(0, 1, 0),
		FovY:          0.9,
		Near:          0.3,
		Far:           20,
		OrbitPerFrame: 0.03,
	}
}
