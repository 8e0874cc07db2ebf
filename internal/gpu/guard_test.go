package gpu

import (
	"context"
	"errors"
	"strings"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/shader"
)

// deadSched is a deliberately broken DRAM scheduler that never issues a
// request — the injected deadlock the watchdog must catch.
type deadSched struct{}

func (deadSched) Pick(*dram.Channel, uint64) int { return -1 }
func (deadSched) Tick(uint64)                    {}
func (deadSched) NextWake(uint64) uint64         { return mem.NeverWake }

// deadStandalone builds the test GPU over DRAM that never services a
// request, so every memory-dependent warp wedges permanently.
func deadStandalone() *Standalone {
	return NewStandalone(CaseStudyIConfig(), dram.Config{
		Geometry:  dram.LPDDR3Geometry(2),
		Timing:    dram.LPDDR3Timing(1333),
		Scheduler: deadSched{},
	}, nil)
}

// wedgedStandalone is a system drawing under the dead scheduler,
// advanced until its progress signature has been flat for a while, so
// a run from it starts from a known-stuck machine and the watchdog's
// detection latency can be bounded tightly.
func wedgedStandalone(t *testing.T) *Standalone {
	t.Helper()
	s := deadStandalone()
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSFlat, vp), nil); err != nil {
		t.Fatal(err)
	}
	prev, flat := s.telemetrySample().Components.WorkSig(), 0
	for i := 0; flat < 2048; i++ {
		if i > 2_000_000 {
			t.Fatal("system never wedged under the dead scheduler")
		}
		s.Step()
		if sig := s.telemetrySample().Components.WorkSig(); sig != prev {
			prev, flat = sig, 0
		} else {
			flat++
		}
	}
	return s
}

// The watchdog must abort a wedged system within 2*N cycles of the last
// forward progress and ship a non-empty diagnostic bundle naming the
// stuck subsystems.
func TestWatchdogAbortsDeadlockedSystem(t *testing.T) {
	s := wedgedStandalone(t)
	const window = 4096
	s.SetWatchdog(window)
	start := s.Cycle()
	_, err := s.RunUntilIdleCtx(context.Background(), 100_000_000)
	elapsed := s.Cycle() - start
	var np *guard.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("RunUntilIdleCtx = %v, want a NoProgressError with its diagnostic bundle", err)
	}
	// Already flat at entry: the trip lands within window + one poll
	// stride, well under the 2*N detection bound.
	if elapsed > 2*window {
		t.Fatalf("watchdog took %d cycles to trip, want <= %d", elapsed, 2*window)
	}

	if np.Diag.Window != window || len(np.Diag.Sections) == 0 {
		t.Fatalf("diag = window %d, %d sections; want window %d and a non-empty bundle",
			np.Diag.Window, len(np.Diag.Sections), window)
	}
	msg := err.Error()
	for _, want := range []string{"no forward progress", "dram", "warp"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic bundle lacks %q:\n%s", want, msg)
		}
	}
}

// SetWatchdog must clamp tiny windows so poll-stride aliasing cannot
// produce false stall verdicts: a window of 1 trips on a wedged system
// only once it has been flat for guard.MinWatchdogWindow cycles, not at
// the next poll. A window of 0 disables the watchdog.
func TestWatchdogWindowClamped(t *testing.T) {
	s := wedgedStandalone(t)
	s.SetWatchdog(1)
	_, err := s.RunUntilIdleCtx(context.Background(), 100_000_000)
	var np *guard.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("RunUntilIdleCtx = %v, want a NoProgressError", err)
	}
	if np.Diag.Window < guard.MinWatchdogWindow {
		t.Fatalf("tripped after %d flat cycles, want the window clamped to %d", np.Diag.Window, guard.MinWatchdogWindow)
	}
	s.SetWatchdog(0)
	if _, err := s.RunUntilIdleCtx(context.Background(), 4*guard.MinWatchdogWindow); err == nil || errors.As(err, &np) {
		t.Fatalf("RunUntilIdleCtx = %v with the watchdog off, want the budget to run out", err)
	}
}

// A watchdog window must not abort a healthy run: the draw drains to
// idle exactly as without it, and an attached guard records checks but
// no violations.
func TestWatchdogAndGuardCleanOnHealthyRun(t *testing.T) {
	s := testStandalone()
	g := guard.NewChecker()
	s.AttachGuard(g)
	probed := 0
	g.Register("test", "ticks", func(uint64) error { probed++; return nil })
	s.SetWatchdog(8192)
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSFlat, vp), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdleCtx(context.Background(), 3_000_000); err != nil {
		t.Fatal(err)
	}
	if s.Busy() {
		t.Fatal("system did not drain")
	}
	if probed == 0 {
		t.Fatal("guard never ran a probe")
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy run recorded violations: %v", v)
	}
}

// The wait audit must fire when the memo is set over queued work: a
// drained GPU is the memo at NeverWake, and a submission that forgot
// to end it would leave the draw unstarted.
func TestGuardCatchesLatchOverQueuedDraw(t *testing.T) {
	s := testStandalone()
	g := guard.NewChecker()
	s.AttachGuard(g)
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	s.Step() // an empty GPU memoises NeverWake on its first tick
	if s.GPU.waitUntil != mem.NeverWake || len(g.Violations()) != 0 {
		t.Fatalf("idle tick: waitUntil = %d, violations = %v; want a clean NeverWake memo", s.GPU.waitUntil, g.Violations())
	}
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSFlat, vp), nil); err != nil {
		t.Fatal(err)
	}
	if s.GPU.waitUntil != 0 {
		t.Fatal("SubmitDraw left the memo standing")
	}
	s.GPU.waitUntil = mem.NeverWake // the fault: a submission that did not end it
	s.Step()
	assertLostWait(t, g)
}

// The wait audit must also fire mid-draw, when the memo outlives the
// work it was computed for: here it is pushed to NeverWake after every
// tick, fill count included, so the first tick that moves anything is
// audited inside it.
func TestGuardCatchesMemoPastDueWork(t *testing.T) {
	s := testStandalone()
	g := guard.NewChecker()
	s.AttachGuard(g)
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSTexturedEarlyZ, vp), nil); err != nil {
		t.Fatal(err)
	}
	// Run the healthy draw until the GPU memoises a wait on memory.
	for i := 0; s.GPU.waitUntil <= s.Cycle()+1; i++ {
		if i > 100_000 {
			t.Fatal("the drawing GPU never memoised a wait")
		}
		s.Step()
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy run reported violations: %v", v)
	}
	for i := 0; len(g.Violations()) == 0; i++ {
		if i > 100_000 {
			t.Fatal("a memo held past due work and no probe fired")
		}
		s.GPU.waitUntil, s.GPU.waitFills = mem.NeverWake, s.GPU.fills
		s.Step()
	}
	assertLostWait(t, g)
}

// The wait audit must see the raster stage: a held tile lets the
// memoised wait run past the raster, so a hold forgotten without ending
// the memo leaves a raster that is due inside a wait. The fault is
// injected by hand once the GPU waits with its raster holding a tile,
// and the audited tick that fine-rasters the tile and holds it again
// must be reported.
func TestGuardCatchesForgottenRasterHold(t *testing.T) {
	s := heldRasterDraw(t)
	g := guard.NewChecker()
	s.AttachGuard(g)
	cl := s.GPU.clusters[0]
	for i := 0; !cl.rast.held || s.GPU.waitUntil <= s.Cycle()+1; i++ {
		if i > 100_000 {
			t.Fatal("the GPU never waited with its raster holding a tile")
		}
		s.Step()
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy run reported violations: %v", v)
	}
	cl.rast.held = false // the fault: the hold forgotten, the memo kept
	s.Step()
	assertLostWait(t, g)
}

func assertLostWait(t *testing.T, g *guard.Checker) {
	t.Helper()
	v := g.Violations()
	if len(v) == 0 {
		t.Fatal("a memo held over queued work and no probe fired")
	}
	if v[0].Name != "wait" || !strings.Contains(v[0].Detail, "waiting until") {
		t.Fatalf("first violation = %v, want the wait audit's report", v[0])
	}
}

// The request ownership audit must fire when a request is freed while
// something downstream still holds it — what a component releasing a
// request it did not issue, or before Done, would cause. The fault here
// is injected by hand: a request waiting in a cluster's NoC port is
// completed and released to a pool behind the machine's back.
func TestGuardCatchesReleasedRequestStillQueued(t *testing.T) {
	s := testStandalone()
	g := guard.NewChecker()
	s.AttachGuard(g)
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSTexturedEarlyZ, vp), nil); err != nil {
		t.Fatal(err)
	}
	var queued *mem.Request
	for i := 0; queued == nil; i++ {
		if i > 100_000 {
			t.Fatal("no request ever waited in a NoC port")
		}
		s.Step()
		for c := range s.GPU.clusters {
			if p := s.GPU.noc.Port(c); p.Len() > 0 {
				queued = p.At(0)
			}
		}
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy run reported violations: %v", v)
	}
	var rogue mem.Pool
	queued.Complete(s.Cycle())
	rogue.Put(queued)
	g.Tick(s.Cycle())
	v := g.Violations()
	if len(v) == 0 || !strings.Contains(v[0].Detail, "released request") {
		t.Fatalf("violations = %v, want a released-request report from the NoC", v)
	}
}
