package simt

import (
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/shader"
)

// guardProg parks a warp at a spin so it stays live while the test
// corrupts its reconvergence stack.
var guardProg = shader.MustAssemble("guard_spin", shader.KindCompute, `
	movs r0, %tid
	exit
`)

// Hand-corrupting a live warp's SIMT stack must trip the simt probe:
// a pushed mask outside the launch mask means divergence created lanes
// from nothing, and an empty stack means control state was lost.
func TestGuardDetectsCorruptSIMTStack(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, 0x1, nil)
	g.Tick(0)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy warp reported violations: %v", v)
	}

	// A stack level activating lanes the warp was never launched with.
	w.stack = append(w.stack, stackEntry{mask: 0x2})
	g.Tick(1)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "escapes bottom mask") {
		t.Fatalf("violations = %v, want an escaped-mask violation", v)
	}
	if !strings.Contains(v[0].Detail, "warp") {
		t.Fatalf("violation does not name the warp: %v", v[0])
	}
}

func TestGuardDetectsEmptyStackOnLiveWarp(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, FullMask, nil)
	w.stack = w.stack[:0]
	g.Tick(0)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "empty SIMT stack") {
		t.Fatalf("violations = %v, want an empty-stack violation", v)
	}
}

func TestGuardDetectsNegativeOutstanding(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g)

	w := launch(t, c, guardProg, env, FullMask, nil)
	w.outstanding = -1
	g.Tick(0)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "negative outstanding") {
		t.Fatalf("violations = %v, want a negative-outstanding violation", v)
	}
}

// wakeRig is a one-scheduler core with a guard attached.
func wakeRig() (*Core, *guard.Checker) {
	cfg := DefaultCoreConfig()
	cfg.Schedulers = 1
	c := NewCore(cfg, nil)
	g := guard.NewChecker()
	c.AttachGuard(g)
	return c, g
}

// tickUntilAsleep ticks until the scheduler has put w to sleep, with
// the guard quiet all the way.
func tickUntilAsleep(t *testing.T, c *Core, g *guard.Checker, w *Warp) uint64 {
	t.Helper()
	for cycle := uint64(0); cycle < 200; cycle++ {
		c.Tick(cycle)
		g.Tick(cycle)
		if !c.awake.has(w.slot) {
			if v := g.Violations(); len(v) != 0 {
				t.Fatalf("healthy core reported violations: %v", v)
			}
			return cycle
		}
	}
	t.Fatal("the warp never went to sleep")
	return 0
}

func wantMissingHook(t *testing.T, g *guard.Checker, cycle uint64) {
	t.Helper()
	g.Tick(cycle)
	v := g.Violations()
	if len(v) == 0 || !strings.Contains(v[0].Detail, "missing wake hook") {
		t.Fatalf("violations = %v, want a missing-wake-hook report", v)
	}
}

// The three wake conditions, each broken behind the scheduler's back:
// the blocking condition lifts without its hook running, so a runnable
// warp stays outside the awake set. The guard must say so.
func TestGuardCatchesScoreboardReleaseWithoutWake(t *testing.T) {
	c, g := wakeRig()
	w := launch(t, c, shader.MustAssemble("raw", shader.KindCompute, `
		rcp r1, r0
		add r2, r1, 1.0
		exit
	`), newTestEnv(), FullMask, nil)
	for cycle := tickUntilAsleep(t, c, g, w); ; cycle++ {
		if w.readyAt <= cycle { // past the SFU stall: asleep on r1 alone
			w.pending = 0 // a release path that forgot Core.unlock
			wantMissingHook(t, g, cycle)
			return
		}
		c.Tick(cycle + 1)
	}
}

func TestGuardCatchesBarrierReleaseWithoutWake(t *testing.T) {
	c, g := wakeRig()
	env := newTestEnv()
	var sp [WarpSize]shader.Special
	waiter, err := c.Launch(shader.MustAssemble("early", shader.KindCompute, "bar\nexit"), env, 0, FullMask, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The sibling is still in its SFU chain when the waiter arrives.
	if _, err := c.Launch(shader.MustAssemble("late", shader.KindCompute, `
		rcp r1, r0
		rcp r2, r1
		rcp r3, r2
		bar
		exit
	`), env, 0, FullMask, sp, nil); err != nil {
		t.Fatal(err)
	}
	cycle := tickUntilAsleep(t, c, g, waiter)
	if !waiter.atBarrier {
		t.Fatal("the waiter sleeps on something other than the barrier")
	}
	waiter.atBarrier = false // a release path that forgot Core.releaseBarrier
	wantMissingHook(t, g, cycle)
}

func TestGuardCatchesLSURoomWithoutWake(t *testing.T) {
	c, g := wakeRig()
	// Every lane of every load touches its own cache line: 32
	// transactions an instruction against an LSU that retires one a
	// cycle, so the ring passes txQueueDepth within a few warps.
	prog := shader.MustAssemble("scatter", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 7
		ldg  r2, [r1]
		ldg  r3, [r1+4096]
		ldg  r4, [r1+8192]
		exit
	`)
	env := newTestEnv()
	for i := 0; i < 12; i++ {
		launch(t, c, prog, env, FullMask, nil)
	}
	for cycle := uint64(0); cycle < 200; cycle++ {
		c.Tick(cycle)
		g.Tick(cycle)
		if !c.lsuWait.any() {
			continue
		}
		if v := g.Violations(); len(v) != 0 {
			t.Fatalf("healthy core reported violations: %v", v)
		}
		if c.txLen < txQueueDepth {
			t.Fatalf("warps wait for LSU room with %d transactions queued", c.txLen)
		}
		c.txLen = txQueueDepth - 1 // room made by something other than popTx
		wantMissingHook(t, g, cycle)
		return
	}
	t.Fatalf("no warp ever slept on LSU room (%d transactions queued)", c.txLen)
}

// The ready set, the slot table and the resident list must agree; each
// way they can fall apart is reported.
func TestGuardAuditsReadySet(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Core, w *Warp)
		want    string
	}{
		{"bit past the residents", func(c *Core, w *Warp) { c.awake.set(c.Cfg.MaxWarps - 1) }, "no resident warp"},
		{"stale greedy bit", func(c *Core, w *Warp) { c.greedy.set(5) }, "no resident warp"},
		{"awake and timed", func(c *Core, w *Warp) { c.timed.set(w.slot) }, "two of awake/timed/lsuWait"},
		{"awake and waiting for the LSU", func(c *Core, w *Warp) { c.lsuWait.set(w.slot) }, "two of awake/timed/lsuWait"},
		{"live warp marked retiring", func(c *Core, w *Warp) { c.retiring.set(w.slot) }, "retiring mark"},
		{"finished warp not marked", func(c *Core, w *Warp) { w.done = true }, "retiring mark"},
		{"slot mislabelled", func(c *Core, w *Warp) { w.slot = 3 }, "mislabelled"},
		{"resident list out of launch order", func(c *Core, w *Warp) { c.order[0], c.order[1] = c.order[1], c.order[0] }, "launch order"},
	} {
		c, g := wakeRig()
		w := launch(t, c, guardProg, newTestEnv(), FullMask, nil)
		launch(t, c, guardProg, newTestEnv(), FullMask, nil)
		g.Tick(0)
		if v := g.Violations(); len(v) != 0 {
			t.Fatalf("%s: healthy core reported violations: %v", tc.name, v)
		}
		tc.corrupt(c, w)
		g.Tick(1)
		if v := g.Violations(); len(v) == 0 || !strings.Contains(v[0].Detail, tc.want) {
			t.Errorf("%s: violations = %v, want one containing %q", tc.name, v, tc.want)
		}
	}
}
