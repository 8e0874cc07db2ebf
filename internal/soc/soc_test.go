package soc

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"testing"

	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/mem"
	"emerald/internal/sched"
	"emerald/internal/stats"
)

// smallConfig shrinks the system for unit tests.
func smallConfig(t *testing.T) Config {
	t.Helper()
	scene, err := geom.SoCModel(geom.M2Cube)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(scene)
	cfg.Width, cfg.Height = 96, 72
	cfg.DisplayPeriod = 60_000
	cfg.AppPeriod = 120_000
	cfg.WorkingSetBytes = 16 * 1024
	cfg.ScenePasses = 1
	cfg.Frames = 2
	cfg.WarmupFrames = 1
	return cfg
}

func TestSoCBootsAndRendersFrames(t *testing.T) {
	cfg := smallConfig(t)
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(30_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) < cfg.Frames+cfg.WarmupFrames {
		t.Fatalf("frames = %d", len(s.Frames))
	}
	res := s.Results("BAS")
	if res.MeanGPUCycles <= 0 {
		t.Fatal("no GPU render time recorded")
	}
	// The display must have completed at least one refresh.
	if s.Display.FramesShown()+s.Display.FramesDropped() == 0 {
		t.Fatal("display never completed a refresh window")
	}
	if s.Display.Served() == 0 {
		t.Fatal("display was never serviced by DRAM")
	}
	// The rendered frame actually reached the framebuffer: some pixel
	// differs from the clear color.
	painted := false
	fb := s.colorA
	for y := 0; y < cfg.Height && !painted; y += 8 {
		for x := 0; x < cfg.Width; x += 8 {
			if fb.ReadPixel(s.GPU.Mem, x, y) != 0xFF101010 {
				painted = true
				break
			}
		}
	}
	if !painted {
		t.Fatal("nothing rendered into the framebuffer")
	}
}

func TestSoCCPUsGenerateTraffic(t *testing.T) {
	cfg := smallConfig(t)
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(30_000_000); err != nil {
		t.Fatal(err)
	}
	if s.DRAM.ServedBy(mem.ClientCPU) == 0 {
		t.Fatal("CPU traffic never reached DRAM")
	}
	if s.DRAM.ServedBy(mem.ClientGPU) == 0 {
		t.Fatal("GPU traffic never reached DRAM")
	}
	if s.DRAM.ServedBy(mem.ClientDisplay) == 0 {
		t.Fatal("display traffic never reached DRAM")
	}
	// App core executed many instructions across frames.
	if s.CPUs[0].Instructions() < 1000 {
		t.Fatalf("app core retired only %d instructions", s.CPUs[0].Instructions())
	}
}

// TestIdleCoresStopAfterBoot: with no background task (the soc_idle
// shape) every core but the app core runs cpu.IdleTask, which halts:
// its retired-instruction count after the first frame is already its
// count at the end of the run.
func TestIdleCoresStopAfterBoot(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Background = make([]uint32, cfg.NumCPUs-1)
	reg := stats.NewRegistry()
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	for len(s.Frames) < 1 {
		if s.Cycle() > 30_000_000 {
			t.Fatal("no frame completed")
		}
		s.Step()
	}
	first := make([]int64, cfg.NumCPUs)
	for i := 1; i < cfg.NumCPUs; i++ {
		first[i] = reg.Value(fmt.Sprintf("cpu%d.instructions", i))
	}
	if err := s.Run(30_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < cfg.NumCPUs; i++ {
		if got := reg.Value(fmt.Sprintf("cpu%d.instructions", i)); got != first[i] {
			t.Errorf("idle cpu%d: %d instructions after the first frame, %d at the end",
				i, first[i], got)
		}
	}
}

func TestSoCWithDASHSchedulerRuns(t *testing.T) {
	cfg := smallConfig(t)
	dcfg, dash := sched.DASHDRAM("dram", dram.LPDDR3Geometry(2),
		dram.LPDDR3Timing(1333), sched.DefaultDASHConfig(cfg.NumCPUs, false))
	cfg.DRAM = dcfg
	cfg.DASH = dash
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(40_000_000); err != nil {
		t.Fatal(err)
	}
	if s.Results("DCB").MeanGPUCycles <= 0 {
		t.Fatal("DASH run produced no GPU timing")
	}
}

func TestSoCWithHMCRuns(t *testing.T) {
	cfg := smallConfig(t)
	cfg.DRAM = sched.HMCDRAM("dram", dram.LPDDR3Geometry(2), dram.LPDDR3Timing(1333))
	reg := stats.NewRegistry()
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(40_000_000); err != nil {
		t.Fatal(err)
	}
	// HMC: CPU traffic only on channel 0, IP traffic only on channel 1.
	ch0CPU := reg.Value("dram.ch0.served_cpu")
	ch1CPU := reg.Value("dram.ch1.served_cpu")
	ch0GPU := reg.Value("dram.ch0.served_gpu")
	ch1GPU := reg.Value("dram.ch1.served_gpu")
	if ch0CPU == 0 || ch1CPU != 0 {
		t.Fatalf("HMC CPU routing broken: ch0=%d ch1=%d", ch0CPU, ch1CPU)
	}
	if ch1GPU == 0 || ch0GPU != 0 {
		t.Fatalf("HMC GPU routing broken: ch0=%d ch1=%d", ch0GPU, ch1GPU)
	}
}

func TestDisplayDropsUnderStarvation(t *testing.T) {
	// A display alone against DRAM that is far too slow must drop frames.
	reg := stats.NewRegistry()
	d := NewDisplay(2_000, reg) // absurdly short period
	fb := testSurface()
	d.SetFrontBuffer(fb)
	ctrl := dram.NewController(dram.Config{
		Geometry: dram.LPDDR3Geometry(1),
		Timing:   dram.LPDDR3Timing(133),
	}, reg)
	for cycle := uint64(0); cycle < 50_000; cycle++ {
		d.Tick(cycle)
		for {
			r := d.Out.Pop()
			if r == nil {
				break
			}
			if !ctrl.Push(r) {
				break
			}
		}
		ctrl.Tick(cycle)
	}
	if d.FramesDropped() == 0 {
		t.Fatal("starved display should drop frames")
	}
}

func TestDisplayMeetsDeadlineWithFastMemory(t *testing.T) {
	reg := stats.NewRegistry()
	d := NewDisplay(100_000, reg)
	d.SetFrontBuffer(testSurface())
	for cycle := uint64(0); cycle < 400_000; cycle++ {
		d.Tick(cycle)
		for {
			r := d.Out.Pop()
			if r == nil {
				break
			}
			r.Complete(cycle + 20)
		}
	}
	if d.FramesShown() < 2 {
		t.Fatalf("frames shown = %d, want >= 2", d.FramesShown())
	}
	if d.FramesDropped() > 1 {
		t.Fatalf("unexpected drops: %d", d.FramesDropped())
	}
}

func testSurface() gfx.Surface {
	return gfx.Surface{Base: 0x8000_0000, Width: 64, Height: 64}
}

// TestIdleSkipPreservesResults runs the same SoC with and without
// event-driven idle cycle-skipping and demands a bit-identical end
// state (every counter, every framebuffer byte, the final cycle),
// while the skipping run must actually have jumped over idle cycles:
// the display-paced workload leaves long gaps between bursts. It is
// also the tripwire for backpressured waits: cycles in which the GPU's
// cluster NoC, its setup stage and its cores only wait on a refusing L2
// are jumped, which lifted the skipped share from 14.4% to 33.5%, and
// so is a background core's register-only burn, planned as one run
// (cpu.Core.Sync), which lifts it from 34.6% to 72.0%. The floor, 60%,
// leaves 12 points of margin below the measured share.
func TestIdleSkipPreservesResults(t *testing.T) {
	run := func(skip bool) (*SoC, string) {
		cfg := smallConfig(t)
		reg := stats.NewRegistry()
		s, err := New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetIdleSkip(skip)
		if err := s.Run(30_000_000); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.DumpJSON(&buf); err != nil {
			t.Fatal(err)
		}
		fb := make([]byte, 3*cfg.Width*cfg.Height*4)
		s.GPU.Mem.Read(0x8000_0000, fb)
		h := sha256.New()
		h.Write(buf.Bytes())
		h.Write(fb)
		fmt.Fprintf(h, "cycle=%d", s.Cycle())
		return s, fmt.Sprintf("%x", h.Sum(nil))
	}
	skipped, dSkip := run(true)
	full, dFull := run(false)
	if dSkip != dFull {
		t.Errorf("idle skipping changed the observable end state: %s != %s", dSkip, dFull)
	}
	share := float64(skipped.SkippedCycles()) / float64(skipped.Cycle())
	if share < 0.60 {
		t.Errorf("skipping run jumped %.1f%% of the cycles, below the 60%% floor", 100*share)
	}
	if full.SkippedCycles() != 0 {
		t.Errorf("no-skip run reports %d skipped cycles", full.SkippedCycles())
	}
	t.Logf("skipped %d of %d cycles (%.1f%%)", skipped.SkippedCycles(), skipped.Cycle(), 100*share)
}
