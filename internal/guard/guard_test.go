package guard

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNilCheckerIsSafe(t *testing.T) {
	var g *Checker
	g.Register("x", "y", func(uint64) error { return errors.New("boom") })
	g.Tick(7)
	if g.Err() != nil {
		t.Fatalf("nil checker Err = %v, want nil", g.Err())
	}
	if g.Violations() != nil {
		t.Fatalf("nil checker Violations = %v, want nil", g.Violations())
	}
	if g.Enabled() {
		t.Fatal("nil checker reports Enabled")
	}
}

func TestCheckerRecordsViolations(t *testing.T) {
	g := NewChecker()
	calls, others := 0, 0
	g.Register("dram", "bank", func(cycle uint64) error {
		calls++
		if cycle == 3 {
			return fmt.Errorf("bank 2 readyAt regressed at cycle %d", cycle)
		}
		return nil
	})
	g.Register("simt", "stack", func(uint64) error { others++; return nil })
	for c := uint64(0); c < 5; c++ {
		g.Tick(c)
	}
	if calls != 5 || others != 5 {
		t.Fatalf("probes ran %d and %d times, want 5 each", calls, others)
	}
	vs := g.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Cycle != 3 || v.Source != "dram" || v.Name != "bank" {
		t.Fatalf("violation = %+v", v)
	}
	err := g.Err()
	if err == nil || !errors.Is(err, ErrInvariant) {
		t.Fatalf("Err = %v, want ErrInvariant wrap", err)
	}
	if !strings.Contains(err.Error(), "bank 2 readyAt regressed") {
		t.Fatalf("Err missing detail: %v", err)
	}
}

func TestCheckerCapsViolations(t *testing.T) {
	g := NewChecker()
	g.Register("x", "always", func(uint64) error { return errors.New("bad") })
	for c := uint64(0); c < 100; c++ {
		g.Tick(c)
	}
	if n := len(g.Violations()); n != maxViolations {
		t.Fatalf("recorded %d violations, want cap %d", n, maxViolations)
	}
}

func TestWatchdogDetectsStall(t *testing.T) {
	w := NewWatchdog(4096)
	// Progress until cycle 8192, then flat.
	var tripped bool
	var atCycle, window uint64
	for c := uint64(0); c <= 40_000; c += 1024 {
		sig := c
		if c > 8192 {
			sig = 8192
		}
		if stalled, win := w.Check(c, sig); stalled {
			tripped, atCycle, window = true, c, win
			break
		}
	}
	if !tripped {
		t.Fatal("watchdog never tripped on a flat signature")
	}
	// Last change observed at the first flat sample (9216); trips once
	// the window has elapsed, within one extra poll stride.
	if window < 4096 || window > 4096+1024 {
		t.Fatalf("tripped with window %d at cycle %d, want within [4096, 5120]", window, atCycle)
	}
}

func TestWatchdogResetsOnProgress(t *testing.T) {
	w := NewWatchdog(4096)
	sig := uint64(0)
	for c := uint64(0); c <= 1_000_000; c += 1024 {
		if c%3072 == 0 {
			sig++ // progress at least every 3072 cycles: under the window
		}
		if stalled, _ := w.Check(c, sig); stalled {
			t.Fatalf("watchdog tripped at cycle %d despite progress", c)
		}
	}
}

func TestWatchdogDisabledAndClamp(t *testing.T) {
	w := NewWatchdog(0)
	if w.window != 0 {
		t.Fatal("window 0 should disable the watchdog")
	}
	if stalled, _ := w.Check(1<<30, 0); stalled {
		t.Fatal("disabled watchdog tripped")
	}
	c := NewWatchdog(1)
	if c.window == 0 {
		t.Fatal("clamped watchdog should be enabled")
	}
	if got := ClampWindow(1); got != MinWatchdogWindow {
		t.Fatalf("ClampWindow(1) = %d, want %d", got, MinWatchdogWindow)
	}
	if got := ClampWindow(0); got != 0 {
		t.Fatalf("ClampWindow(0) = %d, want 0", got)
	}
	if got := ClampWindow(1 << 20); got != 1<<20 {
		t.Fatalf("ClampWindow(1<<20) = %d, want unchanged", got)
	}
}

func TestNoProgressError(t *testing.T) {
	d := Diag{Cycle: 5000, Window: 2048}
	d.Add("warps", []string{"core0 warp3: pc=12 stalled(scoreboard)"})
	d.Add("empty", nil) // dropped
	err := &NoProgressError{Diag: d}
	msg := err.Error()
	for _, want := range []string{"no forward progress for 2048 cycles", "cycle 5000", "warps", "stalled(scoreboard)"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error message missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "empty") {
		t.Fatalf("empty section should have been dropped:\n%s", msg)
	}
	if len(err.Diag.Sections) != 1 {
		t.Fatalf("got %d sections, want 1", len(err.Diag.Sections))
	}
}
