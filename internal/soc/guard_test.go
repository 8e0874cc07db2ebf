package soc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/guard"
	"emerald/internal/mem"
)

// deadSched never issues a DRAM request — the injected deadlock the
// watchdog must catch at the SoC level.
type deadSched struct{}

func (deadSched) Pick(*dram.Channel, uint64) int { return -1 }
func (deadSched) Tick(uint64)                    {}
func (deadSched) NextWake(uint64) uint64         { return mem.NeverWake }

// A SoC whose DRAM never services anything wedges during CPU boot; the
// watchdog must abort with a bundle instead of burning the full budget.
func TestWatchdogAbortsDeadlockedSoC(t *testing.T) {
	cfg := smallConfig(t)
	cfg.DRAM.Scheduler = deadSched{}
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const window = 4096
	s.SetWatchdog(window)
	err = s.RunCtx(context.Background(), 100_000_000)
	var np *guard.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("RunCtx = %v, want a NoProgressError with its diagnostic bundle", err)
	}
	// The machine wedges within the first few thousand cycles (the very
	// first instruction fetches miss to DRAM), so detection lands well
	// under stall-start + 2*N — far below the run budget.
	if c := s.Cycle(); c > 50_000 {
		t.Fatalf("watchdog aborted at cycle %d, want prompt detection", c)
	}
	if len(np.Diag.Sections) == 0 {
		t.Fatal("diagnostic bundle is empty")
	}
	msg := err.Error()
	for _, want := range []string{"no forward progress", "soc", "cpu", "dram"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic bundle lacks %q:\n%s", want, msg)
		}
	}
}

// A guarded healthy run must complete with probes executed and zero
// violations — the invariants hold on the real machine.
func TestGuardCleanOnHealthySoC(t *testing.T) {
	cfg := smallConfig(t)
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.NewChecker()
	s.AttachGuard(g)
	probed := 0
	g.Register("test", "ticks", func(uint64) error { probed++; return nil })
	s.SetWatchdog(1_000_000)
	if err := s.Run(30_000_000); err != nil {
		t.Fatal(err)
	}
	if probed == 0 {
		t.Fatal("guard never ran a probe")
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy run recorded violations: %v", v)
	}
}

// The CPU wait audit must fire when a core's memoised wake covers
// runnable work — the failure an input that reached a parked core
// without ending its memo would produce.
func TestGuardCatchesParkedRunnableCPU(t *testing.T) {
	s, err := New(smallConfig(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.NewChecker()
	s.AttachGuard(g)
	// Core 0 boots runnable; run until it is again due at the first CPU
	// cycle of a system cycle.
	core, mult := s.CPUs[0], uint64(s.Cfg.CPUClockMult)
	for core.NextWake(s.cycle*mult) > s.cycle*mult {
		if s.cycle > 100_000 {
			t.Fatal("cpu0 never became runnable")
		}
		s.Step()
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("violations before the fault was injected: %v", v)
	}
	core.Park(s.cycle + 1_000_000) // a stale memo: no fill has moved since
	s.Step()
	v := g.Violations()
	if len(v) == 0 {
		t.Fatal("cpu0 parked over runnable work and no probe fired")
	}
	if v[0].Source != "cpu" || !strings.Contains(v[0].Detail, "cpu0: waiting until") ||
		!strings.Contains(v[0].Detail, "but due at") {
		t.Fatalf("first violation = %v, want the cpu0 wait audit's report", v[0])
	}
}
