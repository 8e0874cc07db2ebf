package simt

import (
	"math"
	"testing"

	"emerald/internal/mem"
	"emerald/internal/shader"
)

// bothExecutors runs prog as one full warp on the timed core and on the
// functional executor, each over its own copy of the memory setup
// builds, and hands every result to check.
func bothExecutors(t *testing.T, prog *shader.Program, setup func(m *mem.Memory),
	check func(name string, m *mem.Memory, th *[WarpSize]shader.Thread)) {
	t.Helper()
	var sp [WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i), NTID: WarpSize}
	}
	env := newTestEnv()
	setup(env.memory)
	c := NewCore(DefaultCoreConfig(), nil)
	w, err := c.Launch(prog, env, -1, FullMask, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	runCore(t, c, 100000)
	check("timed", env.memory, &w.Threads)

	env = newTestEnv()
	setup(env.memory)
	var fr FuncRunner
	fr.Exec(prog, env, FullMask, sp)
	check("functional", env.memory, &fr.warp.Threads)
}

// The lanes of one load and one store fall on two pages: the
// per-instruction view must follow each lane to its own page.
func TestMemLanesOnTwoPages(t *testing.T) {
	const base = 3*mem.PageSize - 64 // lanes 0..15 below the boundary, 16..31 above
	prog := shader.MustAssemble("two_pages", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		ldg  r2, [r1+12224]
		iadd r3, r2, 1
		stg  [r1+20416], r3
		exit
	`)
	bothExecutors(t, prog, func(m *mem.Memory) {
		for i := uint64(0); i < WarpSize; i++ {
			m.WriteU32(base+4*i, uint32(1000+i))
		}
	}, func(name string, m *mem.Memory, th *[WarpSize]shader.Thread) {
		for i := uint64(0); i < WarpSize; i++ {
			if got := th[i].Regs[2]; got != uint32(1000+i) {
				t.Fatalf("%s: lane %d loaded %d, want %d", name, i, got, 1000+i)
			}
			if got := m.ReadU32(5*mem.PageSize - 64 + 4*i); got != uint32(1001+i) {
				t.Fatalf("%s: lane %d stored %d, want %d", name, i, got, 1001+i)
			}
		}
		if m.PageCount() != 4 {
			t.Fatalf("%s: %d pages materialized, want 4", name, m.PageCount())
		}
	})
}

// 32 lanes add to one address on a page nobody wrote: lane 0 reads the
// shared zero page, and its write must materialize the page rather than
// land in the zero page. The result is the lane-ordered float sum (the
// addends are chosen so another order gives another sum), every lane
// gets the running total before it, and unwritten memory still reads 0.
func TestAtomAddOnNeverWrittenPage(t *testing.T) {
	const addr = 7 * mem.PageSize
	prog := shader.MustAssemble("atom", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		ldg  r2, [r1+4096]
		mov  r3, 0
		atom.add r4, [r3+28672], r2
		exit
	`)
	addend := func(lane int) float32 {
		switch lane % 4 {
		case 0:
			return 1e8
		case 2:
			return -1e8
		}
		return float32(lane)
	}
	bothExecutors(t, prog, func(m *mem.Memory) {
		for i := 0; i < WarpSize; i++ {
			m.WriteF32(mem.PageSize+uint64(4*i), addend(i))
		}
	}, func(name string, m *mem.Memory, th *[WarpSize]shader.Thread) {
		sum := float32(0)
		for i := 0; i < WarpSize; i++ {
			if got := math.Float32frombits(th[i].Regs[4]); got != sum {
				t.Fatalf("%s: lane %d saw %v before its add, want the lane-ordered prefix %v", name, i, got, sum)
			}
			sum += addend(i)
		}
		if got := m.ReadF32(addr); got != sum {
			t.Fatalf("%s: total %v, want %v", name, got, sum)
		}
		if m.PageCount() != 2 {
			t.Fatalf("%s: %d pages materialized, want the addends' and the accumulator's", name, m.PageCount())
		}
		for _, a := range []uint64{0, addr + mem.PageSize, 1 << 40} {
			if got := m.ReadU32(a); got != 0 {
				t.Fatalf("%s: unwritten address %#x reads %#x: the shared zero page was written", name, a, got)
			}
		}
	})
}

// A 4-byte access that straddles a page end goes around the view's
// page cache; what it writes into a page the view had cached as
// never-written must be visible to the next read through that view (the
// functional executor keeps its view across instructions).
func TestMemAccessStraddlingPageEnd(t *testing.T) {
	const end = 9 * mem.PageSize
	prog := shader.MustAssemble("straddle", shader.KindCompute, `
		mov  r0, 0
		ldg  r1, [r0+36864]
		iadd r2, r0, 0x11223344
		stg  [r0+36862], r2
		ldg  r3, [r0+36864]
		ldg  r4, [r0+36862]
		ldg  r5, [r0+36860]
		exit
	`)
	bothExecutors(t, prog, func(m *mem.Memory) {}, func(name string, m *mem.Memory, th *[WarpSize]shader.Thread) {
		r := th[5].Regs
		if r[1] != 0 || r[3] != 0x1122 || r[4] != 0x11223344 || r[5] != 0x33440000 {
			t.Fatalf("%s: r1=%#x r3=%#x r4=%#x r5=%#x, want 0, 0x1122, 0x11223344, 0x33440000", name, r[1], r[3], r[4], r[5])
		}
		if m.ReadU32(end-2) != 0x11223344 || m.PageCount() != 2 {
			t.Fatalf("%s: memory holds %#x over %d pages", name, m.ReadU32(end-2), m.PageCount())
		}
	})
}

// The program that used to livelock the timed core and index the
// functional executor out of range is rejected before either sees it.
// A Program built by hand can still run off its end; the timed core
// must then keep the warp resident and awake — no panic, no retirement,
// the guard quiet — which is what the nil check in schedReady is for.
func TestProgramRunningOffItsEnd(t *testing.T) {
	if _, err := shader.Assemble("k", shader.KindCompute, "mov r0, 1.0"); err == nil {
		t.Fatal("a program with no exit assembled")
	}
	prog := shader.MustAssemble("k", shader.KindCompute, "mov r0, 1.0\nexit")
	prog.Code, prog.Decode = prog.Code[:1], prog.Decode[:1]
	c, g := wakeRig()
	env := newTestEnv()
	w := launch(t, c, prog, env, FullMask, nil)
	for cycle := uint64(0); cycle < 64; cycle++ {
		if wake := c.NextWake(cycle); wake != cycle {
			t.Fatalf("cycle %d: NextWake = %d with a warp that can never sleep", cycle, wake)
		}
		c.Tick(cycle)
		g.Tick(cycle)
	}
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("guard: %v", v)
	}
	if c.instrs.Value() != 1 || c.ActiveWarps() != 1 || env.retired != 0 || !c.awake.has(w.slot) {
		t.Fatalf("%d instructions, %d resident, %d retired, awake=%v; want 1, 1, 0, true",
			c.instrs.Value(), c.ActiveWarps(), env.retired, c.awake.has(w.slot))
	}
}
