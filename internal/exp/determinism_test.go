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

// timeAdvance is one setting of the run loop's two time-advancement
// knobs: clock jumps over idle stretches (Skip), and parking, which
// charges a part that is not due instead of ticking it (Park; "wheel"
// is SetEventWheel's name for it, and no wheel is left).
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
// end state. It also returns the share of cycles the clock jumped.
func socStateDigest(t *testing.T, opt Options, model int, cfg MemConfig, mbps int, adv timeAdvance) (string, float64) {
	t.Helper()
	opt.EveryCycle = !adv.skip && !adv.wheel
	reg := stats.NewRegistry()
	s, err := buildSoC(model, cfg, mbps, opt, reg)
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
	s.GPU.Mem.Read(0x8000_0000, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d res=%+v", s.Cycle(), s.Results("digest"))
	return fmt.Sprintf("%x", h.Sum(nil)), float64(s.SkippedCycles()) / float64(s.Cycle())
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
// invisible. The default loop jumps the clock over idle stretches, and
// charges instead of ticking a part that is not due (a CPU core or the
// GPU inside its memoised wake, the display, NoC or DRAM with nothing
// to do); both may only elide ticks that were gated no-ops anyway.
// So the complete observable end state of a run (registry JSON,
// framebuffer, final cycle, results) must match the every-cycle
// reference, and each mechanism on its own. The default digests are
// pinned in testdata/digests.json (see TestPinnedDigests), so a change
// that moves simulated state in every mode alike fails too.
func TestTimeAdvanceDeterminismSoC(t *testing.T) {
	cases := []struct {
		model int
		cfg   MemConfig
	}{
		{geom.M2Cube, BAS},
		{geom.M1Chair, DTB},
	}
	opt := Quick()
	if testing.Short() {
		cases = cases[:1]
		// Race-detector runs (scripts/check.sh uses -race -short) pay
		// ~20x per simulated cycle; one frame still exercises every
		// component.
		opt.Frames, opt.WarmupFrames = 1, 0
	}
	for _, c := range cases {
		def, _ := socStateDigest(t, opt, c.model, c.cfg, opt.RegularMbps, defaultAdvance)
		key := fmt.Sprintf("state digest: soc %s/%s, %d+%d frames at quick", modelName(c.model), c.cfg, opt.WarmupFrames, opt.Frames)
		checkPinned(t, key, pinned{SHA256: def})
		for _, arm := range referenceArms {
			if got, _ := socStateDigest(t, opt, c.model, c.cfg, opt.RegularMbps, arm); got != def {
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
	checkPinned(t, "state digest: standalone W3, 2 frames", pinned{SHA256: def})
	for _, arm := range referenceArms {
		if got := standaloneStateDigest(t, arm); got != def {
			t.Errorf("default digest %s != %s digest %s", def, arm.name, got)
		}
	}
}

// TestHighLoadCellSkipsMemoryBoundCycles is the count-based tripwire of
// the memory-bound jump: a high-load Case Study I cell spends most of
// its cycles waiting on the LPDDR3 bus, and the clock jumps over every
// cycle where a DRAM channel waits at its bus gate and the drawing GPU
// waits on memory (DESIGN.md "Time advancement"). The jumps must leave
// the end state equal to a run that ticks every cycle, and must cover
// at least skipFloor of the cell's cycles: a wake that falls back to
// "now" while the GPU draws or a channel has a request queued drops
// the share to the idle gaps between frames.
// skipFloor is the least share of its cycles the high-load cell must
// jump. It measured 47.4%; without the GPU's memoised wait 41.2%, and
// without the DRAM bus gate 2.1%, as at the parent. So the floor trips
// on the loss of either wake and leaves 3.4 points for model changes
// that move the share honestly.
const skipFloor = 0.44

func TestHighLoadCellSkipsMemoryBoundCycles(t *testing.T) {
	opt := Smoke()
	def, share := socStateDigest(t, opt, geom.M1Chair, BAS, opt.HighMbps, defaultAdvance)
	ref, _ := socStateDigest(t, opt, geom.M1Chair, BAS, opt.HighMbps, timeAdvance{"every-cycle", false, false})
	if def != ref {
		t.Errorf("default digest %s != every-cycle digest %s", def, ref)
	}
	t.Logf("M1-chair/BAS at %d Mb/s: skipped %.1f%% of cycles", opt.HighMbps, 100*share)
	if share < skipFloor {
		t.Errorf("skipped %.1f%% of cycles, want at least %.0f%%", 100*share, 100*skipFloor)
	}
}
