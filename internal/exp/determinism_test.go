package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/stats"
)

// How time advances must be invisible: every counter, every
// framebuffer byte, every reported frame time. These tests hash the
// complete observable state of a run — stats registry, framebuffer,
// final cycle, results summary — and demand equality between the
// default engine and the every-cycle reference.

// timeAdvance is one setting of the engine's two time-advancement
// mechanisms: clock jumps over idle stretches, and parked components —
// the SoC's CPU cores and display on their wheel slots, the drained
// GPU behind its latch ("wheel" is SetEventWheel's name for both).
type timeAdvance struct {
	name        string
	skip, wheel bool
}

var defaultAdvance = timeAdvance{"default", true, true}

// referenceArms are what the default is held to: the every-cycle
// oracle, and the two single-mechanism arms bench/ measures.
var referenceArms = []timeAdvance{
	{"every-cycle", false, false},
	{"skip-only", true, false},
	{"wheel-only", false, true},
}

// socStateDigest runs one Case Study I cell and hashes its observable
// end state.
func socStateDigest(t *testing.T, model int, cfg MemConfig, adv timeAdvance) string {
	t.Helper()
	opt := Quick()
	if testing.Short() {
		// Race-detector runs (scripts/check.sh uses -race -short) pay
		// ~20x per simulated cycle; one frame still exercises every
		// component.
		opt.Frames, opt.WarmupFrames = 1, 0
	}
	opt.EveryCycle = !adv.skip && !adv.wheel
	reg := stats.NewRegistry()
	s, err := buildSoC(model, cfg, opt.RegularMbps, opt, reg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIdleSkip(adv.skip)
	s.SetEventWheel(adv.wheel)
	if err := s.Run(opt.BudgetCycles); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fb := make([]byte, 3*opt.Width*opt.Height*4)
	s.Mem.Read(0x8000_0000, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d res=%+v", s.Cycle(), s.Results("digest"))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// standaloneStateDigest renders two DFSL frames on the standalone GPU
// and hashes the observable end state.
func standaloneStateDigest(t *testing.T, adv timeAdvance) string {
	t.Helper()
	sys := gpu.DefaultStandalone(nil)
	sys.SetIdleSkip(adv.skip)
	sys.SetEventWheel(adv.wheel)
	ctx := gl.NewContext(sys.Mem(), gl.HeapBase, gl.HeapSize)
	ctx.Submit = func(call *gpu.DrawCall) error { return sys.GPU.SubmitDraw(call, nil) }
	ctx.OnClearDepth = sys.GPU.ClearHiZ
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Viewport(160, 120); err != nil {
		t.Fatal(err)
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < 2; frame++ {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(frame, 160.0/120.0))
		if err := ctx.DrawMesh(mesh); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunUntilIdle(4_000_000_000); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cs := ctx.ColorSurface()
	fb := make([]byte, cs.Width*cs.Height*4)
	sys.Mem().Read(cs.Base, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d", sys.Cycle())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTimeAdvanceDeterminismSoC checks that how time advances is
// invisible. The default engine jumps the clock over idle stretches,
// parks CPU cores and the display on their wheel slots and stops
// ticking a drained GPU; all may only elide ticks that were gated
// no-ops anyway.
// So the complete observable end state of a run (registry JSON,
// framebuffer, final cycle, results) must match the every-cycle
// reference, and each mechanism on its own. The default digests are
// logged, so a change that moves simulated state shows up as a new hash.
func TestTimeAdvanceDeterminismSoC(t *testing.T) {
	cases := []struct {
		model int
		cfg   MemConfig
	}{
		{geom.M2Cube, BAS},
		{geom.M1Chair, DTB},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		def := socStateDigest(t, c.model, c.cfg, defaultAdvance)
		t.Logf("%s/%s state digest: %s", modelName(c.model), c.cfg, def)
		for _, arm := range referenceArms {
			if got := socStateDigest(t, c.model, c.cfg, arm); got != def {
				t.Errorf("%s/%s: default digest %s != %s digest %s",
					modelName(c.model), c.cfg, def, arm.name, got)
			}
		}
	}
}

// TestTimeAdvanceDeterminismStandalone is the standalone-GPU (dfsl W3)
// counterpart of TestTimeAdvanceDeterminismSoC.
func TestTimeAdvanceDeterminismStandalone(t *testing.T) {
	def := standaloneStateDigest(t, defaultAdvance)
	t.Logf("standalone W3 state digest: %s", def)
	for _, arm := range referenceArms {
		if got := standaloneStateDigest(t, arm); got != def {
			t.Errorf("default digest %s != %s digest %s", def, arm.name, got)
		}
	}
}
