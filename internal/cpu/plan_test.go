package cpu

import (
	"slices"
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/stats"
)

// farMemory completes what a core sends downstream lat cycles after it
// leaves, the way the SoC's NoC and DRAM complete it after the core's
// tick.
type farMemory struct {
	lat  uint64
	pend []pending
}

type pending struct {
	at uint64
	r  *mem.Request
}

func (f *farMemory) take(q *mem.Queue, cycle uint64) {
	for r := q.Pop(); r != nil; r = q.Pop() {
		f.pend = append(f.pend, pending{cycle + f.lat, r})
	}
}

func (f *farMemory) complete(cycle uint64) {
	keep := f.pend[:0]
	for _, p := range f.pend {
		if p.at <= cycle {
			p.r.Complete(cycle)
		} else {
			keep = append(keep, p)
		}
	}
	f.pend = keep
}

// coreState appends what the lockstep comparison reads of a core to
// buf: its architectural state, its caches' outstanding misses and
// the counters of its registry (the core's and its three caches').
func coreState(buf []int64, c *Core, ctrs []*stats.Counter) []int64 {
	buf = append(buf, int64(c.PC), int64(boolTo(c.halted)), int64(boolTo(c.waitingMem)),
		int64(c.L1I.PendingMisses()), int64(c.L1D.PendingMisses()), int64(c.L2.PendingMisses()))
	for _, r := range c.Regs {
		buf = append(buf, int64(r))
	}
	for _, k := range ctrs {
		buf = append(buf, k.Value())
	}
	return buf
}

// lockstep runs a core that plans its register-only runs beside a
// reference that issues one instruction per due cycle (step), each on
// its own memory. The planned core is driven as its par.Part is with
// one CPU cycle per owner cycle: skipped while its memoised wake holds.
// After Sync(k+1) at every cycle k the two must agree. It returns the
// cycles at which each was due, so a caller can see that plans ran.
func lockstep(t *testing.T, cfg Config, prog *Program, init func(*Core), cycles uint64) (plannedDue, refDue int) {
	t.Helper()
	sys := func(*Core, int32) (uint32, bool) { return 1, true }
	var cores [2]*Core
	var regs [2]*stats.Registry
	var ctrs [2][]*stats.Counter
	var far [2]*farMemory
	for i := range cores {
		regs[i] = stats.NewRegistry()
		cores[i] = NewCore(cfg, prog, mem.NewMemory(), regs[i])
		cores[i].Sys = sys
		init(cores[i])
		far[i] = &farMemory{lat: 40}
		for _, n := range regs[i].Names() {
			ctrs[i] = append(ctrs[i], regs[i].Counter(n))
		}
	}
	planned, ref := cores[0], cores[1]
	var got, want []int64
	for k := uint64(0); k < cycles; k++ {
		if planned.WaitUntil(k) <= k {
			plannedDue++
			planned.Tick(k)
		}
		far[0].take(planned.Out, k)
		planned.Park(planned.NextWake(k + 1))
		far[0].complete(k)

		if ref.NextWake(k) <= k {
			refDue++
		}
		ref.step(k)
		far[1].take(ref.Out, k)
		far[1].complete(k)

		planned.Sync(k + 1)
		got, want = coreState(got[:0], planned, ctrs[0]), coreState(want[:0], ref, ctrs[1])
		if !slices.Equal(got, want) {
			t.Fatalf("CPU cycle %d: the planned core differs from the stepped one (pc, halted, mem wait, L1I/L1D/L2 misses outstanding, r0-r15, then %v)\n  planned: %v\n  stepped: %v",
				k, regs[0].Names(), got, want)
		}
	}
	if planned.Instructions() == 0 {
		t.Fatal("the core retired nothing")
	}
	return plannedDue, refDue
}

// storeThenBurn stores to a new line, which misses, then burns longer
// than the fill takes to return.
var storeThenBurn = MustAssemble("store_then_burn", `
	movi r0, 0
	movi r2, 0x100000
loop:
	st   [r2], r2
	addi r2, r2, 4096
	movi r6, 40
burn:
	addi r6, r6, -1
	blt  r0, r6, burn
	jmp  loop
`)

// TestPlannedRunMatchesSteppedCore: a core that issues its
// register-only runs as planned runs leaves, at every CPU cycle, the
// registers, PC and counters of a core that issues one instruction
// per due cycle, while being due at fewer cycles.
func TestPlannedRunMatchesSteppedCore(t *testing.T) {
	background := func(ws, iters uint32) func(*Core) {
		return func(c *Core) {
			c.Regs[10], c.Regs[11], c.Regs[12], c.Regs[13] = 0x10_0000, ws, iters, 128
		}
	}
	// A private L2 smaller than the L1D: the L1D's dirty victims miss
	// in it, so L2 fills are in flight while no L1 misses.
	tinyL2 := DefaultConfig(0)
	tinyL2.L1D.SizeBytes = 8 * 1024
	tinyL2.L2.SizeBytes = 4 * 1024
	cases := []struct {
		name string
		cfg  Config
		prog *Program
		init func(*Core)
	}{
		{"background", DefaultConfig(0), BackgroundTask, background(256*1024, 48)},
		{"background-intensive", DefaultConfig(0), BackgroundTask, background(256*1024, 4)},
		{"background-tiny-l2", tinyL2, BackgroundTask, background(64*1024, 24)},
		{"burn-after-store-miss", DefaultConfig(0), storeThenBurn, func(*Core) {}},
		{"app-frame-loop", DefaultConfig(0), AppFrameLoop, func(c *Core) {
			c.Regs[10], c.Regs[11] = 0x10_0000, 48*1024
			c.Regs[12], c.Regs[13], c.Regs[14] = 0x20_0000, 4096, 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plannedDue, refDue := lockstep(t, tc.cfg, tc.prog, tc.init, 60_000)
			if plannedDue >= refDue {
				t.Fatalf("the planned core was due at %d cycles, the stepped one at %d: no run was planned", plannedDue, refDue)
			}
			t.Logf("due at %d cycles, stepped %d", plannedDue, refDue)
		})
	}
}

// TestGuardCatchesWorkInsidePlannedRun: under a guard, a cache that
// got work between a run's plan and its commit is reported through the
// core's wait probe: the run was planned on the promise that nothing
// outside the core could reach it.
func TestGuardCatchesWorkInsidePlannedRun(t *testing.T) {
	c, _ := mk(t, `
		movi r0, 0
		movi r6, 100
	burn:
		addi r6, r6, -1
		blt  r0, r6, burn
		halt
	`)
	g := guard.NewChecker()
	c.AttachGuard(g)
	far := &farMemory{lat: 40}
	cycle := uint64(0)
	for ; c.runLeft == 0; cycle++ {
		if cycle > 1000 {
			t.Fatal("the core never planned a run")
		}
		c.Tick(cycle)
		far.take(c.Out, cycle)
		far.complete(cycle)
		g.Tick(cycle)
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("violations before the fault was injected: %v", v)
	}
	c.L1D.Access(cycle, 0x4000, mem.Read, nil) // a miss nothing in the core issued
	for end := c.runEnd; cycle <= end; cycle++ {
		c.Tick(cycle)
		g.Tick(cycle)
	}
	v := g.Violations()
	if len(v) == 0 || !strings.Contains(v[0].Detail, "cpu0: a cache got work inside the run planned") {
		t.Fatalf("violations = %v, want the cpu0 wait probe's report of the planned run", v)
	}
}
