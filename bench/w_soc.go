package main

import (
	"fmt"

	"emerald"
	"emerald/internal/dram"
	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/mathx"
	"emerald/internal/sched"
	"emerald/internal/stats"
)

// socStartFrames bounds the seeded camera start offset. A cell renders
// two or three frames, so unlike gpu_frag's full orbit its cost follows
// the view: on M1 and M3 an arbitrary start angle moved host time by
// tens of percent (measured), a few frames of the orbit by about one.
const socStartFrames = 4

// socScene builds a Case Study I model with the camera started a
// seeded number of orbit frames along its path.
func socScene(model int, seed uint64) (*geom.Scene, error) {
	scene, err := emerald.SoCModel(model)
	if err != nil {
		return nil, err
	}
	phase := scene.OrbitPerFrame * float32(newRNG(seed, "camera").intn(socStartFrames))
	eye := mathx.RotateY(phase).MulVec(mathx.V4(scene.Eye.X, scene.Eye.Y, scene.Eye.Z, 1))
	scene.Eye = eye.XYZ()
	return scene, nil
}

// buildCell assembles one Case Study I system from exported API only:
// the emerald facade plus the sched package's DRAM configurations. It
// mirrors exp.buildSoC's scaling of the GPU caches and the DASH quantum
// (TestCellMatchesExp fails if the two drift), so the benchmark can
// hand the system its own registry and a scene built in set-up.
func buildCell(scene *geom.Scene, cfg exp.MemConfig, mbps int, opt exp.Options, reg *stats.Registry) (*emerald.SoC, error) {
	sc := emerald.DefaultSoCConfig(scene)
	sc.Width, sc.Height = opt.Width, opt.Height
	sc.GPU.Core.L1D.SizeBytes = 8 * 1024
	sc.GPU.Core.L1T.SizeBytes = 16 * 1024
	sc.GPU.Core.L1Z.SizeBytes = 16 * 1024
	sc.GPU.Core.L1C.SizeBytes = 8 * 1024
	sc.GPU.Core.LSUWidth = 2
	sc.GPU.L2.SizeBytes = 64 * 1024
	sc.Frames = opt.Frames
	sc.WarmupFrames = opt.WarmupFrames
	sc.DisplayPeriod = opt.DisplayPeriod
	sc.AppPeriod = opt.AppPeriod

	g := dram.LPDDR3Geometry(2)
	timing := dram.LPDDR3Timing(mbps)
	switch cfg {
	case exp.BAS:
		sc.DRAM = sched.BaselineDRAM("dram", g, timing)
	case exp.DCB, exp.DTB:
		dashCfg := sched.DefaultDASHConfig(sc.NumCPUs, cfg == exp.DTB)
		dashCfg.QuantumLength = opt.AppPeriod
		sc.DRAM, sc.DASH = sched.DASHDRAM("dram", g, timing, dashCfg)
	case exp.HMC:
		sc.DRAM = sched.HMCDRAM("dram", g, timing)
	}
	return emerald.NewSoC(sc, reg)
}

// socRun is what one full-system run leaves behind.
type socRun struct {
	res     emerald.SoCResults
	cycles  uint64
	skipped uint64
}

// addRun folds one finished run into the totals: every run builds a
// fresh system on a fresh registry, as the harnesses in exp do.
func (c counts) addRun(reg *stats.Registry, r socRun) {
	c["soc"]++
	c["cycles"] += float64(r.cycles)
	c["skipped"] += float64(r.skipped)
	c.addRegistry(reg)
}

// runSoC builds (build) and runs one system. everyCycle turns idle
// skipping and the event wheels off: the reference mode results must
// not differ from.
func runSoC(tr *tracer, op int, name string, budget uint64, everyCycle bool,
	build func(reg *stats.Registry) (*emerald.SoC, error), tot counts) (socRun, error) {
	reg := stats.NewRegistry()
	s := tr.begin(noSpan, "soc.new_ms", op)
	sys, err := build(reg)
	tr.end(s)
	if err != nil {
		return socRun{}, err
	}
	if everyCycle {
		sys.SetIdleSkip(false)
		sys.SetEventWheel(false)
	}
	s = tr.begin(noSpan, "soc.run_ms", op)
	err = sys.Run(budget)
	tr.end(s)
	if err != nil {
		return socRun{}, fmt.Errorf("%s: %w", name, err)
	}
	r := socRun{res: sys.Results(name), cycles: sys.Cycle(), skipped: sys.SkippedCycles()}
	if tot != nil {
		tot.addRun(reg, r)
	}
	if r.res.FramesShown <= 0 {
		return r, fmt.Errorf("%s: no frame shown", name)
	}
	return r, nil
}

// socBusy is the soc_busy workload: Case Study I cells under high load.
type socBusy struct {
	opt    exp.Options
	scenes map[int]*geom.Scene
	cells  []busyCell
	tot    counts
	first  *socRun // round 0's result for cells[0]
}

type busyCell struct {
	model int
	cfg   exp.MemConfig
}

func setupSoCBusy(e *env) (instance, error) {
	b := &socBusy{opt: exp.Smoke(), scenes: map[int]*geom.Scene{}, tot: counts{}}
	for _, m := range []int{geom.M1Chair, geom.M3Mask} {
		scene, err := socScene(m, e.seed)
		if err != nil {
			return nil, err
		}
		b.scenes[m] = scene
		for _, c := range exp.AllMemConfigs() {
			b.cells = append(b.cells, busyCell{m, c})
		}
	}
	b.cells = b.cells[:e.n(len(b.cells))]
	return b, nil
}

func (b *socBusy) cell(tr *tracer, op int, c busyCell, everyCycle bool, tot counts) (socRun, error) {
	name := fmt.Sprintf("M%d/%s", c.model, c.cfg)
	return runSoC(tr, op, name, b.opt.BudgetCycles, everyCycle, func(reg *stats.Registry) (*emerald.SoC, error) {
		return buildCell(b.scenes[c.model], c.cfg, b.opt.HighMbps, b.opt, reg)
	}, tot)
}

// warm runs the first cell once: every op builds a system of its own, so
// what it warms is the process, and it gives set-up a size (0.2 s) that
// a scene build alone (1.4 ms) does not have.
func (b *socBusy) warm() error {
	_, err := b.cell(nil, -1, b.cells[0], false, nil)
	return err
}

func (b *socBusy) round(tr *tracer, rec *roundRec) error {
	for i, c := range b.cells {
		rec.op(func(op int) error { //nolint:errcheck // a failed cell fails its op; the round goes on
			r, err := b.cell(tr, op, c, false, b.tot)
			if i == 0 && b.first == nil && err == nil {
				b.first = &r
			}
			return err
		})
	}
	return nil
}

func (b *socBusy) counts() counts { return b.tot.clone() }

func (b *socBusy) check() []string {
	if b.first == nil {
		return []string{"soc_busy: first cell never completed"}
	}
	ref, err := b.cell(nil, -1, b.cells[0], true, nil)
	if err != nil {
		return []string{"soc_busy: every-cycle reference: " + err.Error()}
	}
	if ref.res != b.first.res || ref.cycles != b.first.cycles {
		return []string{fmt.Sprintf("soc_busy: cell %+v differs from its every-cycle reference: %+v vs %+v", b.cells[0], *b.first, ref)}
	}
	return nil
}

func (b *socBusy) finish(metricSet) {}
func (b *socBusy) close()           {}

// socIdle is the soc_idle workload: a display-paced M2 run in which the
// app core renders a small frame and sleeps until vsync and the
// background cores are idle, so nine cycles in ten are skippable.
type socIdle struct {
	scene  *geom.Scene
	frames int
	tot    counts
	ran    bool // an op completed
}

const (
	idleFrames = 10
	// idleMinFrames keeps a shrunk run long enough for the display to
	// show a frame: the first app frame only reaches it a period later.
	idleMinFrames = 3
	idleBudget    = 400_000_000
)

func setupSoCIdle(e *env) (instance, error) {
	scene, err := socScene(geom.M2Cube, e.seed)
	return &socIdle{frames: max(e.n(idleFrames), idleMinFrames), scene: scene, tot: counts{}}, err
}

func buildIdle(scene *geom.Scene, frames int, reg *stats.Registry) (*emerald.SoC, error) {
	cfg := emerald.DefaultSoCConfig(scene)
	cfg.Width, cfg.Height = 96, 72
	cfg.DisplayPeriod = 400_000
	cfg.AppPeriod = 800_000
	cfg.WorkingSetBytes = 16 * 1024
	cfg.ScenePasses = 1
	cfg.Background = make([]uint32, cfg.NumCPUs-1)
	cfg.Frames = frames
	cfg.WarmupFrames = 0
	return emerald.NewSoC(cfg, reg)
}

func (s *socIdle) run(tr *tracer, op, frames int, everyCycle bool, tot counts) (socRun, error) {
	return runSoC(tr, op, "idle", idleBudget, everyCycle, func(reg *stats.Registry) (*emerald.SoC, error) {
		return buildIdle(s.scene, frames, reg)
	}, tot)
}

// warm is a short run: every op builds a system of its own, so all there
// is to warm is the process.
func (s *socIdle) warm() error {
	_, err := s.run(nil, -1, idleMinFrames, false, nil)
	return err
}

func (s *socIdle) round(tr *tracer, rec *roundRec) error {
	rec.op(func(op int) error { //nolint:errcheck // the failed op is on record
		_, err := s.run(tr, op, s.frames, false, s.tot)
		s.ran = s.ran || err == nil
		return err
	})
	return nil
}

func (s *socIdle) counts() counts { return s.tot.clone() }

// check runs a short scenario both ways: skipping and the event wheels
// must not change a result or the final cycle. (The every-cycle run of
// the full ten frames takes twice an op.)
func (s *socIdle) check() []string {
	if !s.ran {
		return []string{"soc_idle: no run completed"}
	}
	got, err := s.run(nil, -1, idleMinFrames, false, nil)
	if err != nil {
		return []string{"soc_idle: short run: " + err.Error()}
	}
	ref, err := s.run(nil, -1, idleMinFrames, true, nil)
	if err != nil {
		return []string{"soc_idle: every-cycle reference: " + err.Error()}
	}
	if ref.res != got.res || ref.cycles != got.cycles {
		return []string{fmt.Sprintf("soc_idle: run differs from its every-cycle reference: %+v vs %+v", got, ref)}
	}
	return nil
}

func (s *socIdle) finish(metricSet) {}
func (s *socIdle) close()           {}
