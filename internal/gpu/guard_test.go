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
func (deadSched) Name() string                   { return "dead" }

// deadStandalone builds the test GPU over DRAM that never services a
// request, so every memory-dependent warp wedges permanently.
func deadStandalone() *Standalone {
	return NewStandalone(CaseStudyIConfig(), dram.Config{
		Geometry:  dram.LPDDR3Geometry(2),
		Timing:    dram.LPDDR3Timing(1333),
		Scheduler: deadSched{},
	}, nil)
}

// The watchdog must abort a wedged system within 2*N cycles of the last
// forward progress and ship a non-empty diagnostic bundle naming the
// stuck subsystems.
func TestWatchdogAbortsDeadlockedSystem(t *testing.T) {
	s := deadStandalone()
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSFlat, vp), nil); err != nil {
		t.Fatal(err)
	}

	// Advance until the progress signature has been flat for a while, so
	// the run below starts from a known-stuck machine and the watchdog's
	// detection latency can be bounded tightly.
	prev, flat := s.progressSig(), 0
	for i := 0; flat < 2048; i++ {
		if i > 2_000_000 {
			t.Fatal("system never wedged under the dead scheduler")
		}
		s.Tick()
		if sig := s.progressSig(); sig != prev {
			prev, flat = sig, 0
		} else {
			flat++
		}
	}

	const window = 4096
	s.SetWatchdog(window)
	start := s.Cycle()
	_, err := s.RunUntilIdleCtx(context.Background(), 100_000_000)
	elapsed := s.Cycle() - start
	if !errors.Is(err, guard.ErrNoProgress) {
		t.Fatalf("RunUntilIdleCtx = %v, want ErrNoProgress", err)
	}
	// Already flat at entry: the trip lands within window + one poll
	// stride, well under the 2*N detection bound.
	if elapsed > 2*window {
		t.Fatalf("watchdog took %d cycles to trip, want <= %d", elapsed, 2*window)
	}

	var np *guard.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("error %T does not carry a diagnostic bundle", err)
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

// A watchdog window must not abort a healthy run: the draw drains to
// idle exactly as without it, and an attached guard records checks but
// no violations.
func TestWatchdogAndGuardCleanOnHealthyRun(t *testing.T) {
	s := testStandalone()
	g := guard.NewChecker()
	s.AttachGuard(g)
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
	if g.Checks() == 0 {
		t.Fatal("guard never ran a probe")
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy run recorded violations: %v", v)
	}
}

// SetWatchdog must clamp tiny windows so poll-stride aliasing cannot
// produce false stall verdicts.
func TestWatchdogWindowClamped(t *testing.T) {
	s := testStandalone()
	s.SetWatchdog(1)
	if s.run.Watchdog != guard.MinWatchdogWindow {
		t.Fatalf("window = %d, want clamped to %d", s.run.Watchdog, guard.MinWatchdogWindow)
	}
	s.SetWatchdog(0)
	if s.run.Watchdog != 0 {
		t.Fatalf("window = %d, want 0 (disabled)", s.run.Watchdog)
	}
}

// The drained-latch audit must fire when the latch is set over queued
// work — the failure an input path that forgot to clear it would
// produce.
func TestGuardCatchesLatchOverQueuedDraw(t *testing.T) {
	s := testStandalone()
	g := guard.NewChecker()
	s.AttachGuard(g)
	const vp = 64
	clearTargets(s, vp, 0)
	idx := uploadQuad(s, 0)
	uploadIdentityUniforms(s, [4]float32{1, 0, 0, 1}, 1)
	s.Tick() // an empty GPU latches on its first tick
	if !s.GPU.drained || len(g.Violations()) != 0 {
		t.Fatalf("idle tick: drained = %v, violations = %v; want a clean latch", s.GPU.drained, g.Violations())
	}
	if err := s.GPU.SubmitDraw(quadCall(s, idx, shader.FSFlat, vp), nil); err != nil {
		t.Fatal(err)
	}
	if s.GPU.drained {
		t.Fatal("SubmitDraw left the latch set")
	}
	s.GPU.drained = true // the fault: a submission that did not clear it
	s.Tick()
	v := g.Violations()
	if len(v) == 0 {
		t.Fatal("latched over a queued draw and no probe fired")
	}
	if v[0].Name != "drained" || !strings.Contains(v[0].Detail, "latched as drained but busy") {
		t.Fatalf("first violation = %v, want the drained-latch report", v[0])
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
		s.Tick()
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
	s.run.Guard.Tick(s.Cycle())
	v := g.Violations()
	if len(v) == 0 || !strings.Contains(v[0].Detail, "released request") {
		t.Fatalf("violations = %v, want a released-request report from the NoC", v)
	}
}
