package cpu

import (
	"testing"

	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/stats"
)

// run ticks the core with an ideal memory until halted.
func run(t *testing.T, c *Core, budget uint64) uint64 {
	t.Helper()
	for cycle := uint64(0); cycle < budget; cycle++ {
		c.Tick(cycle)
		for {
			r := c.Out.Pop()
			if r == nil {
				break
			}
			r.Complete(cycle)
		}
		if c.halted {
			return cycle
		}
	}
	t.Fatalf("core did not halt in %d cycles (pc=%d)", budget, c.PC)
	return budget
}

func mk(t *testing.T, src string) (*Core, *mem.Memory) {
	t.Helper()
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	return NewCore(DefaultConfig(0), p, m, nil), m
}

func TestALUAndControlFlow(t *testing.T) {
	c, _ := mk(t, `
		movi r2, 10
		movi r3, 0
		movi r0, 0
	loop:
		add  r3, r3, r2
		addi r2, r2, -1
		blt  r0, r2, loop
		halt
	`)
	run(t, c, 100000)
	if c.Regs[3] != 55 {
		t.Fatalf("sum = %d, want 55", c.Regs[3])
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c, m := mk(t, `
		movi r2, 0x1000
		movi r3, 42
		st   [r2], r3
		ld   r4, [r2]
		st   [r2+4], r4
		halt
	`)
	run(t, c, 100000)
	if c.Regs[4] != 42 || m.ReadU32(0x1004) != 42 {
		t.Fatalf("r4=%d mem=%d", c.Regs[4], m.ReadU32(0x1004))
	}
}

func TestMemoryLatencyMatters(t *testing.T) {
	// A pointer-chase over many lines must take far longer than a
	// register loop of the same instruction count.
	loadSrc := `
		movi r2, 0
		movi r3, 64
		movi r0, 0
	loop:
		ld   r4, [r2]
		addi r2, r2, 4096
		addi r3, r3, -1
		blt  r0, r3, loop
		halt
	`
	aluSrc := `
		movi r2, 0
		movi r3, 64
		movi r0, 0
	loop:
		add  r4, r2, r2
		addi r2, r2, 4096
		addi r3, r3, -1
		blt  r0, r3, loop
		halt
	`
	cl, _ := mk(t, loadSrc)
	ca, _ := mk(t, aluSrc)
	tl := run(t, cl, 1_000_000)
	ta := run(t, ca, 1_000_000)
	if tl <= ta {
		t.Fatalf("load loop (%d) should be slower than ALU loop (%d)", tl, ta)
	}
}

func TestSysHandler(t *testing.T) {
	c, _ := mk(t, `
		movi r2, 7
		sys  1
		mov  r5, r1
		halt
	`)
	calls := 0
	c.Sys = func(core *Core, code int32) (uint32, bool) {
		calls++
		if calls < 3 {
			return 0, false // block twice
		}
		return core.Regs[2] * 2, true
	}
	run(t, c, 100000)
	if c.Regs[5] != 14 {
		t.Fatalf("sys result = %d, want 14", c.Regs[5])
	}
	if calls != 3 {
		t.Fatalf("handler calls = %d, want 3 (two blocked retries)", calls)
	}
}

func TestSysWithoutHandlerHalts(t *testing.T) {
	c, _ := mk(t, "sys 1\nhalt")
	run(t, c, 1000)
	if !c.halted {
		t.Fatal("core should halt on unhandled syscall")
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"bogus r1, r2",
		"jmp nowhere",
		"movi r99, 1",
		"ld r1, r2",
		"",
		"x: x: halt",
		"ld r1, []",
		"st [], r1",
		"ld r1, [ ]",
		"add r1, r2, r3, r4",
		"halt r1",
	} {
		if _, err := Assemble("bad", src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestCacheHierarchyCounts(t *testing.T) {
	// Two passes over a small array: second pass hits in L1D.
	p, err := Assemble("t", `
		movi r5, 2
		movi r0, 0
	pass:
		movi r2, 0
		movi r3, 16
	loop:
		ld   r4, [r2]
		addi r2, r2, 64
		addi r3, r3, -1
		blt  r0, r3, loop
		addi r5, r5, -1
		blt  r0, r5, pass
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	run(t, NewCore(DefaultConfig(0), p, mem.NewMemory(), reg), 1_000_000)
	if m := reg.Value("cpu0.l1d.misses"); m != 16 {
		t.Fatalf("L1D misses = %d, want 16 (second pass should hit)", m)
	}
	if h := reg.Value("cpu0.l1d.hits"); h < 16 {
		t.Fatalf("L1D hits = %d, want >= 16", h)
	}
}

func TestBuiltinProgramsAssemble(t *testing.T) {
	for _, p := range []*Program{AppFrameLoop, BackgroundTask, IdleTask} {
		if p == nil || len(p.Code) == 0 {
			t.Fatal("builtin program empty")
		}
	}
}

func TestAppFrameLoopRunsOneFrame(t *testing.T) {
	m := mem.NewMemory()
	c := NewCore(DefaultConfig(0), AppFrameLoop, m, nil)
	c.Regs[10] = 0x10000 // working set base
	c.Regs[11] = 4096    // 4KB working set
	c.Regs[12] = 0x20000 // command buffer
	c.Regs[13] = 256
	c.Regs[14] = 1 // one pass

	var submits, fencePolls, vsyncs int
	c.Sys = func(core *Core, code int32) (uint32, bool) {
		switch code {
		case SysFrameSubmit:
			submits++
			return 99, true
		case SysFenceDone:
			fencePolls++
			if fence := core.Regs[2]; fence != 0 && fence != 99 {
				t.Fatalf("fence id = %d, want 0 or 99", fence)
			}
			return uint32(boolTo(fencePolls%3 == 0 || core.Regs[2] == 0)), true
		case SysWaitVsync:
			vsyncs++
			if vsyncs >= 2 {
				core.Regs[15] = 1 // let the test stop us
			}
			return 0, true
		}
		return 0, true
	}
	// Run until two vsyncs (two frames submitted).
	for cycle := uint64(0); cycle < 3_000_000; cycle++ {
		c.Tick(cycle)
		for {
			r := c.Out.Pop()
			if r == nil {
				break
			}
			r.Complete(cycle)
		}
		if vsyncs >= 2 {
			break
		}
	}
	if submits < 2 || fencePolls < 2 {
		t.Fatalf("submits=%d fencePolls=%d (want >=2, >=2)", submits, fencePolls)
	}
	// The working set was actually touched.
	if m.ReadU32(0x10000) == 0 {
		t.Fatal("scene update did not write the working set")
	}
}

func boolTo(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFillEndsTheMemo: a core parked on an L2 miss keeps its memoised
// wake across quiet cycles, and the fill's completion ends the memo by
// itself, through the L2's fill counter, with no call from the owner.
// The owner is a one-part par.Loop, one CPU cycle per owner cycle, that
// counts the cycles it ticks the core rather than charging it.
func TestFillEndsTheMemo(t *testing.T) {
	c, _ := mk(t, "ld r3, [r2]\nhalt")
	var cycle uint64
	port := mem.NewQueue(0)
	part, ticks := c.Part(1, port), 0
	tick := part.Tick
	part.Tick = func(at uint64) { ticks++; tick(at) }
	l := par.NewLoop(&cycle, []par.Part{part}, par.Hooks{})
	var held []*mem.Request
	for len(held) == 0 {
		if cycle > 1000 {
			t.Fatal("the core never missed in its L2")
		}
		l.Step()
		for r := port.Pop(); r != nil; r = port.Pop() {
			held = append(held, r)
		}
	}
	if w := c.WaitUntil(cycle); w != mem.NeverWake {
		t.Fatalf("core blocked on its L2 miss memoised wake %d, want NeverWake", w)
	}
	for end := cycle + 500; cycle < end; {
		n := ticks
		if l.Step(); ticks != n || c.WaitUntil(cycle) != mem.NeverWake {
			t.Fatalf("cycle %d: the memo ended with no fill", cycle-1)
		}
	}
	for _, r := range held {
		r.Complete(cycle)
	}
	if c.WaitUntil(cycle) != cycle {
		t.Fatal("the L2 fill completed and the memo still holds")
	}
	if c.NextWake(cycle) > cycle {
		t.Fatal("the memo ended but the core has nothing due")
	}
	n := ticks
	if l.Step(); ticks != n+1 {
		t.Fatal("the memo ended and the loop did not tick the core")
	}
	l.SetEventWheel(false)
	c.Park(mem.NeverWake)
	if c.WaitUntil(cycle) != mem.NeverWake {
		t.Fatal("with parking off the memo is not kept")
	}
	n = ticks
	if l.Step(); ticks != n+1 {
		t.Fatal("with parking off the memo lets the owner skip the core")
	}
}

// TestIdleTaskHaltsForGood: an idle core retires its few instructions
// and then answers mem.NeverWake, retiring nothing more however long
// it is ticked. No syscall polls a scheduling quantum on its behalf.
func TestIdleTaskHaltsForGood(t *testing.T) {
	c := NewCore(DefaultConfig(0), IdleTask, mem.NewMemory(), nil)
	// Without a handler a sys instruction halts the core; this one
	// completes every call, so only the program can halt it.
	c.Sys = func(*Core, int32) (uint32, bool) { return 0, true }
	cycle := uint64(0)
	for ; c.NextWake(cycle) != mem.NeverWake; cycle++ {
		if cycle > 10_000 {
			t.Fatalf("idle core still due at cycle %d, %d instructions retired",
				cycle, c.Instructions())
		}
		c.Tick(cycle)
		for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
			r.Complete(cycle)
		}
	}
	n := c.Instructions()
	if n > int64(len(IdleTask.Code)) {
		t.Fatalf("idle core retired %d instructions, more than its %d-instruction program",
			n, len(IdleTask.Code))
	}
	for end := cycle + 100_000; cycle < end; cycle++ {
		c.Tick(cycle)
		if w := c.NextWake(cycle); w != mem.NeverWake {
			t.Fatalf("cycle %d: idle core due at %d after halting", cycle, w)
		}
	}
	if got := c.Instructions(); got != n {
		t.Fatalf("idle core retired %d instructions after halting", got-n)
	}
}
