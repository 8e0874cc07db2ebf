package simt

import (
	"runtime"
	"testing"

	"emerald/internal/shader"
)

// refHazard is Warp.hazard as it was before the scoreboard became a
// bitmask: it re-derives the inspected registers from the Instr and
// looks each up in a per-register count array. Kept only as the
// reference Decoded.Hazard is checked against.
func refHazard(scoreboard *[shader.NumRegs]uint8, in shader.Instr) bool {
	read := func(s shader.Src) bool {
		return !s.IsImm && scoreboard[s.Reg] > 0
	}
	if read(in.A) || read(in.B) || read(in.C) {
		return true
	}
	// Quad-register reads.
	switch in.Op {
	case shader.OpOut4, shader.OpPack4, shader.OpFBSt, shader.OpZSt:
		if !in.A.IsImm {
			for i := 0; i < 4; i++ {
				r := int(in.A.Reg) + i
				if r < shader.NumRegs && scoreboard[r] > 0 {
					return true
				}
			}
		}
	}
	if in.HasDst() {
		for i := 0; i < in.DstWidth(); i++ {
			r := int(in.Dst) + i
			if r < shader.NumRegs && scoreboard[r] > 0 {
				return true
			}
		}
	}
	return false
}

// The decode table's hazard mask must name exactly the registers the
// old routine inspected, instruction by instruction: one register is
// made pending at a time and both are asked.
func TestHazardMaskMatchesReference(t *testing.T) {
	progs := []*shader.Program{
		shader.VSTransform, shader.FSTexturedEarlyZ, shader.FSTexturedLateZ, shader.FSTexturedBlend,
		shader.FSFlat, shader.KernelSAXPY, shader.KernelVecAdd, shader.KernelReduceAtomic,
		// The quads the stdlib never places at the top of the file,
		// including zst's, which may run past it.
		shader.MustAssemble("edge", shader.KindFragment, `
			attr4 r60, 0
			tex4  r60, 0, r1, r2
			unpk4 r60, r3
			pack4 r5, r60
			out4  0, r60
			fbst  r60
			zst   r60
			zst   r62
			zst   r63
			zld   r63
			out4  1, 1.0
			exit
		`),
	}
	for seed := int64(1); seed <= oraclePrograms; seed++ {
		progs = append(progs, oracleProgram(t, seed))
	}
	for _, p := range progs {
		if len(p.Decode) != len(p.Code) {
			t.Fatalf("%s: %d table entries for %d instructions", p.Name, len(p.Decode), len(p.Code))
		}
		for pc, in := range p.Code {
			d := p.Decode[pc]
			for r := 0; r < shader.NumRegs; r++ {
				var sb [shader.NumRegs]uint8
				sb[r] = 1
				if want, got := refHazard(&sb, in), d.Hazard>>r&1 != 0; got != want {
					t.Fatalf("%s pc %d (%s): r%d pending: mask says %v, reference says %v",
						p.Name, pc, shader.DisasmInstr(in), r, got, want)
				}
			}
			if d.Mem != in.IsMemory() || d.Class != shader.ClassOf(in.Op) {
				t.Fatalf("%s pc %d: table %+v disagrees with the instruction", p.Name, pc, d)
			}
		}
	}
}

// A writeback event can outlive its warp: the warp exits the cycle
// after an ALU op and is reaped with the op's event still queued. The
// struct is recycled; the late event must not release the new
// occupant's lock on the same register.
func TestStaleWritebackSparesRecycledWarp(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	first := launch(t, c, shader.MustAssemble("short", shader.KindCompute, `
		mov r5, 1.0
		exit
	`), env, FullMask, nil)
	c.Tick(0) // mov issues: r5 unlocks at ALULatency
	c.Tick(1) // exit issues, the warp is reaped
	if c.ActiveWarps() != 0 || c.nEvents != 1 {
		t.Fatalf("after exit: %d warps, %d queued events; want 0 and the mov's writeback", c.ActiveWarps(), c.nEvents)
	}
	stale := c.events[0].q.Front().at

	second := launch(t, c, shader.MustAssemble("long", shader.KindCompute, `
		rcp r5, r4
		add r6, r5, 1.0
		exit
	`), env, FullMask, func(_ int, th *shader.Thread) { th.SetF(4, 4) })
	if second != first {
		t.Fatal("the retired warp's struct was not recycled")
	}
	c.Tick(2) // rcp issues: r5 locked until SFULatency later
	release := 2 + c.Cfg.SFULatency
	if stale >= release {
		t.Fatalf("stale event at %d does not fall inside the new lock (released at %d)", stale, release)
	}
	for cycle := uint64(3); cycle < release; cycle++ {
		c.Tick(cycle)
		if second.pending&(1<<5) == 0 {
			t.Fatalf("cycle %d: r5 released early (stale writeback due at %d, real one at %d)", cycle, stale, release)
		}
		if n := c.instrs.Value(); n != 3 {
			t.Fatalf("cycle %d: %d instructions issued, want 3: the dependent add must wait for r5", cycle, n)
		}
	}
	runFrom(t, c, release, 1000)
	if got := second.Threads[0].F(shader.R(6)); got != 1.25 {
		t.Fatalf("r6 = %v, want 1.25", got)
	}
	if c.instrs.Value() != 5 {
		t.Fatalf("%d instructions issued, want 5", c.instrs.Value())
	}
}

// fragStyle has the shape of the stdlib's textured fragment shaders:
// varyings, a texture fetch, ALU and SFU work, a predicated depth test
// and update, a blend read, colour packing and the framebuffer store.
var fragStyle = shader.MustAssemble("frag_style", shader.KindFragment, `
	attr4 r0, 0
	tex4  r4, 0, r0, r1
	mul   r8, r4, r0
	mad   r9, r5, r1, r8
	rcp   r10, r9
	zld   r12
	movs  r13, %fz
	setp.le.f p0, r13, r12
	@p0 zst r13
	fbld  r14
	unpk4 r16, r14
	add   r8, r8, r16
	mov   r11, 1.0
	pack4 r15, r8
	@p0 fbst r15
	exit
`)

// saxpyStyle is the stdlib SAXPY inner body with a divergent tail.
var saxpyStyle = shader.MustAssemble("saxpy_style", shader.KindCompute, `
	movs r0, %tid
	movs r1, %ctaid
	shl  r2, r0, 2
	iadd r3, r1, r2
	ldg  r4, [r3]
	ldg  r5, [r3+4096]
	mad  r6, r4, 2.0, r5
	stg  [r3+4096], r6
	and  r7, r0, 1
	setp.eq.i p0, r7, 0
	ssy  join
	@p0 bra even
	lds  r8, [r2]
	bra  join
even:
	sts  [r2], r6
join:
	bar
	exit
`)

// aluStyle touches no store path at all: ALU, SFU, loads, divergence,
// scratchpad and a barrier.
var aluStyle = shader.MustAssemble("alu_style", shader.KindCompute, `
	movs r0, %tid
	movs r1, %ctaid
	shl  r2, r0, 2
	iadd r3, r1, r2
	ldg  r4, [r3]
	cvt.i2f r5, r0
	mad  r6, r4, 2.0, r5
	rsq  r7, r6
	and  r8, r0, 3
	iadd r8, r8, 1
loop:
	add  r6, r6, r7
	lds  r9, [r2]
	isub r8, r8, 1
	setp.gt.i p0, r8, 0
	ssy  done
	@p0 bra loop
done:
	sts  [r2], r6
	bar
	ldc  r10, [16]
	exit
`)

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// With its pools warm, Core.Tick allocates nothing: not for its own
// bookkeeping and not for the mem.Request values it hands to the next
// memory level (write-through stores, fills), which the issuing cache
// or core takes back once downstream has completed them. Cold caches
// included.
func TestSteadyStateTickDoesNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	for _, tc := range []struct {
		prog     *shader.Program
		block    int
		cold     bool // rotate the data over three ranges the L1D cannot hold at once: loads miss
		requests bool
	}{
		{prog: aluStyle, block: 3},
		{prog: fragStyle, block: -1, requests: true},
		{prog: saxpyStyle, block: 0, requests: true},
		{prog: saxpyStyle, block: 0, cold: true, requests: true},
	} {
		env := newTestEnv()
		env.attrs[0] = [4]float32{0.25, 0.5, 0.75, 1}
		env.texVal = [4]float32{0.1, 0.2, 0.3, 0.4}
		c := NewCore(DefaultCoreConfig(), nil)
		cycle, batches := uint64(0), 0
		// batch fills the core, ticks it to idle against an ideal next
		// level and returns what the ticks allocated and emitted.
		batch := func() (allocs uint64, requests int) {
			base := uint32(0x100_0000)
			if tc.cold {
				base += uint32(batches%3) * 0x10_0000
			}
			batches++
			for w := 0; w < 48 && c.CanLaunch(tc.prog); w++ {
				var sp [WarpSize]shader.Special
				for i := range sp {
					sp[i] = shader.Special{TID: uint32(i), NTID: WarpSize, CTAID: base + uint32(w*256)}
				}
				if _, err := c.Launch(tc.prog, env, tc.block, FullMask, sp, nil); err != nil {
					t.Fatal(err)
				}
			}
			before := mallocs()
			for ; !c.Idle(); cycle++ {
				c.Tick(cycle)
				for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
					requests++
					r.Complete(cycle)
				}
			}
			return mallocs() - before, requests
		}
		for i := 0; i < 3; i++ {
			batch() // warm the pools, the queues' backing arrays and the caches
		}
		// A leak shows in every batch; an allocation by some runtime
		// goroutine, or a map rehash in a cold batch's MSHR churn, shows
		// in one. So the best of five batches must be exact.
		best, bestRequests := -1, 0
		for i := 0; i < 5; i++ {
			allocs, requests := batch()
			if tc.requests == (requests == 0) {
				t.Fatalf("%s: %d requests left the core; the case expects some=%v", tc.prog.Name, requests, tc.requests)
			}
			if best < 0 || int(allocs) < best {
				best, bestRequests = int(allocs), requests
			}
		}
		if best != 0 {
			t.Fatalf("%s (cold=%v): ticks allocated %d objects while emitting %d requests, want none",
				tc.prog.Name, tc.cold, best, bestRequests)
		}
		if len(c.freeWarps) == 0 || c.regsUsed != 0 {
			t.Fatalf("%s: free list %d warps, %d registers still accounted", tc.prog.Name, len(c.freeWarps), c.regsUsed)
		}
	}
}
