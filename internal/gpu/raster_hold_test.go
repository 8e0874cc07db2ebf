package gpu

import (
	"bytes"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/shader"
)

// holdRun is what one run of the held-raster draw leaves behind.
type holdRun struct {
	image, stats   []byte // colour and depth surfaces; every counter and distribution
	cycle, skipped uint64
	held, culled   int // reference only: ticks that found a tile held, and culled it
}

// heldRasterDraw builds the SoC GPU with a one-entry TC ready queue
// and submits four stacks of seven opaque quads, each quad covering one
// 8x8 TC tile of a 16x16 target: the raster holds a refused tile on
// most cycles of the draw. Each stack alternates depths so that a quad
// retiring lowers Hi-Z under a farther quad's held tile, which the
// re-test then culls. BinsPerEngine 8 lets one engine coalesce a quad's
// two triangles, so each quad's TC tile covers its position in full and
// updates Hi-Z.
func heldRasterDraw(t *testing.T) *Standalone {
	t.Helper()
	cfg := CaseStudyIConfig()
	cfg.TC.ReadyDepth = 1
	cfg.TC.BinsPerEngine = 8
	s := NewStandalone(cfg, dram.Config{Geometry: dram.LPDDR3Geometry(2), Timing: dram.LPDDR3Timing(1333)}, nil)
	clearTargets(s, holdVP, 0)
	uploadIdentityUniforms(s, [4]float32{0, 0, 1, 0}, 1)
	var idx []uint32
	quad := func(x0, y0, x1, y1, z float32) {
		b := uint32(len(idx) / 6 * 4)
		for i, v := range [][8]float32{
			{x0, y0, z, 0, 0, 1, 0, 0}, {x1, y0, z, 0, 0, 1, 1, 0},
			{x1, y1, z, 0, 0, 1, 1, 1}, {x0, y1, z, 0, 0, 1, 0, 1},
		} {
			for j, f := range v {
				s.Mem().WriteF32(tVB+uint64((int(b)+i)*32+j*4), f)
			}
		}
		idx = append(idx, b, b+1, b+2, b, b+2, b+3)
	}
	for _, at := range [][2]float32{{-1, -1}, {0, -1}, {-1, 0}, {0, 0}} {
		for _, z := range []float32{0.8, 0.7, 0.9, 0.6, 0.75, 0.5, 0.65} {
			quad(at[0], at[1], at[0]+1, at[1]+1, z)
		}
	}
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSTexturedEarlyZ, holdVP), nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// holdVP is heldRasterDraw's target size.
const holdVP = 16

// runHeldRasterDraw runs heldRasterDraw to the end. parked runs it as a
// clock-jumping system with the GPU acting on its memoised wait;
// otherwise it ticks every cycle with nothing parked, and reraster also
// forgets the held tile before every tick, so the raster fine-rasters
// and Hi-Z-tests a refused tile again on every cycle, as it did before
// tiles were held.
func runHeldRasterDraw(t *testing.T, parked, reraster bool) holdRun {
	t.Helper()
	s := heldRasterDraw(t)
	s.SetEventWheel(parked)
	s.SetIdleSkip(parked)
	var r holdRun
	if parked {
		if _, err := s.RunUntilIdle(5_000_000); err != nil {
			t.Fatal(err)
		}
	} else {
		cl := s.GPU.clusters[0]
		for {
			held, culled := cl.rast.held, s.GPU.hizCulledC.Value()
			if reraster {
				cl.rast.held = false
			}
			s.Step()
			if held {
				r.held++
				if s.GPU.hizCulledC.Value() > culled {
					r.culled++
				}
			}
			if !s.Busy() {
				break
			}
			if s.Cycle() > 5_000_000 {
				t.Fatal("draw not done after 5M cycles")
			}
		}
	}
	for _, base := range []uint64{tColor, tDepth} {
		img := make([]byte, 4*holdVP*holdVP)
		s.Mem().Read(base, img)
		r.image = append(r.image, img...)
	}
	var js bytes.Buffer
	if err := s.Reg.DumpJSON(&js); err != nil {
		t.Fatal(err)
	}
	r.stats, r.cycle, r.skipped = js.Bytes(), s.Cycle(), s.SkippedCycles()

	return r
}

// A tile the TC refuses is held, not fine-rastered again, and the GPU
// stops stepping for it until a PopReady makes room. Against the raster
// that re-rasters a refused tile every cycle, holding must change
// nothing: the parked run, the every-cycle run and the re-rastering run
// leave the same image, counters and final cycle. The reference culls
// held tiles, so a held tile that skips the Hi-Z re-test fails here,
// and so does a cull that leaves the next tile marked held. Parking the
// held raster lets the clock jump 2,924 of the draw's 6,076 cycles
// (48.1%); a raster due on every cycle of a hold let it jump 2,117
// (34.8%), below the 42% floor.
func TestHeldRasterTileAgainstReRasterReference(t *testing.T) {
	ref := runHeldRasterDraw(t, false, true)
	if ref.held == 0 || ref.culled == 0 {
		t.Fatalf("reference: %d ticks found a tile held, %d of them culled it by Hi-Z; want both above 0", ref.held, ref.culled)
	}
	for _, mode := range []struct {
		name   string
		parked bool
	}{{"every-cycle", false}, {"parked", true}} {
		got := runHeldRasterDraw(t, mode.parked, false)
		if got.cycle != ref.cycle {
			t.Errorf("%s: draw ends at cycle %d, the re-rastering reference at %d", mode.name, got.cycle, ref.cycle)
		}
		if !bytes.Equal(got.image, ref.image) {
			t.Errorf("%s: colour or depth differs from the re-rastering reference", mode.name)
		}
		if !bytes.Equal(got.stats, ref.stats) {
			t.Errorf("%s: counters differ from the re-rastering reference\n  got  %s\n  want %s", mode.name, got.stats, ref.stats)
		}
		if mode.parked {
			share := float64(got.skipped) / float64(got.cycle)
			t.Logf("parked: %d of %d cycles skipped (%.1f%%); reference: %d ticks held a tile, %d of them culled it",
				got.skipped, got.cycle, 100*share, ref.held, ref.culled)
			if share < 0.42 {
				t.Errorf("parked: %.1f%% of the draw's cycles skipped, want at least 42%%: a held raster is keeping the GPU due", 100*share)
			}
		}
	}
}
