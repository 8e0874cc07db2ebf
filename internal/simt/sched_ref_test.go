package simt

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"emerald/internal/cache"
	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/shader"
)

// refSched is the warp scheduler simt.Core had before the ready set,
// kept as the reference the ready set is driven against: scheduling
// state per warp (parked, lastIssued), a greedy search and a launch-
// order walk over every resident warp each slot, schedReady on those
// fields, and a NextWake that loops over the warps. It schedules a core
// of its own, using the core's execution and memory machinery (issue,
// tickMemory, reap) and none of its ready set.
//
// The old scheduler cleared a park from two hooks, Warp.unlock and the
// barrier release. The reference has no hooks inside the core: observe
// sees the same two events from outside, as scoreboard bits that went
// away and atBarrier flags that dropped, so a wake hook missing from
// the core cannot be missing from the reference too.
type refSched struct {
	c             *Core
	warps         []*refWarp // resident, launch order
	lastScheduled int
}

type refWarp struct {
	w          *Warp
	gen        uint32
	parked     uint64
	lastIssued uint64
	pending    uint64 // scoreboard as last observed
	atBarrier  bool   // as last observed
}

func (r *refSched) launched(w *Warp) {
	r.warps = append(r.warps, &refWarp{w: w, gen: w.gen})
}

func (r *refSched) observe() {
	for _, rw := range r.warps {
		if rw.pending&^rw.w.pending != 0 || rw.atBarrier && !rw.w.atBarrier {
			rw.parked = 0
		}
		rw.pending, rw.atBarrier = rw.w.pending, rw.w.atBarrier
	}
}

func (r *refSched) nextWake(cycle uint64) uint64 {
	r.observe()
	c := r.c
	if c.txLen > 0 || c.Out.Len() > 0 {
		return cycle
	}
	w := uint64(mem.NeverWake)
	for _, rw := range r.warps {
		if rw.parked <= cycle {
			return cycle
		}
		if rw.parked < w {
			w = rw.parked
		}
	}
	for _, ca := range []*cache.Cache{c.L1D, c.L1T, c.L1Z, c.L1C} {
		if v := ca.NextWake(cycle); v < w {
			w = v
		}
	}
	for i := range c.events {
		if q := &c.events[i].q; q.Len() > 0 && q.Front().at < w {
			w = q.Front().at
		}
	}
	if w <= cycle {
		return cycle
	}
	return w
}

func (r *refSched) schedReady(rw *refWarp, cycle uint64) bool {
	w := rw.w
	if w.done || w.atBarrier {
		rw.parked = mem.NeverWake
		return false
	}
	if w.readyAt > cycle {
		rw.parked = w.readyAt
		return false
	}
	d := w.decoded()
	if d == nil {
		return false
	}
	if w.hazard(d) {
		rw.parked = mem.NeverWake
		return false
	}
	if d.Mem {
		if r.c.txLen >= txQueueDepth {
			return false
		}
		if w.outstanding > 0 && d.Class == shader.ClassROP {
			rw.parked = mem.NeverWake
			return false
		}
	}
	return true
}

// issueOne returns the ID of the warp it issued, -1 for an idle slot.
func (r *refSched) issueOne(cycle uint64) int {
	r.observe()
	c := r.c
	n := len(r.warps)
	if n == 0 {
		c.issueIdle.Inc()
		return -1
	}
	try := func(rw *refWarp) bool {
		if rw.parked > cycle {
			return false
		}
		if !r.schedReady(rw, cycle) {
			return false
		}
		c.issue(rw.w.slot, cycle)
		rw.lastIssued = cycle
		return true
	}
	if c.Cfg.GTO {
		var greedy *refWarp
		for _, rw := range r.warps {
			if rw.lastIssued == cycle-1 && cycle > 0 {
				greedy = rw
				break
			}
		}
		if greedy != nil && try(greedy) {
			return greedy.w.ID
		}
		for _, rw := range r.warps {
			if rw != greedy && try(rw) {
				return rw.w.ID
			}
		}
	} else {
		start := r.lastScheduled % n
		r.lastScheduled++
		for i := 0; i < n; i++ {
			if rw := r.warps[(start+i)%n]; try(rw) {
				return rw.w.ID
			}
		}
	}
	c.issueIdle.Inc()
	c.traceStall(cycle)
	return -1
}

// tick is the old Core.Tick around the reference scheduler. It returns
// the warp ID each scheduler slot issued, nil for a gated cycle.
func (r *refSched) tick(cycle uint64) []int {
	c := r.c
	c.curCycle = cycle
	if r.nextWake(cycle) > cycle {
		return nil
	}
	c.cycles.Inc()
	c.tickMemory(cycle)
	picks := make([]int, 0, c.Cfg.Schedulers)
	for s := 0; s < c.Cfg.Schedulers; s++ {
		picks = append(picks, r.issueOne(cycle))
	}
	c.reap()
	kept := r.warps[:0]
	for _, rw := range r.warps {
		if rw.w.gen == rw.gen {
			kept = append(kept, rw)
		}
	}
	r.warps = kept
	return picks
}

// steppedTick is Core.Tick taken apart so the test can read each slot's
// pick; a third core runs the real Tick beside it.
func steppedTick(c *Core, cycle uint64) []int {
	c.curCycle = cycle
	c.wakeTimed(cycle)
	if c.NextWake(cycle) > cycle {
		return nil
	}
	c.cycles.Inc()
	c.tickMemory(cycle)
	picks := make([]int, 0, c.Cfg.Schedulers)
	for s := 0; s < c.Cfg.Schedulers; s++ {
		id := -1
		if slot := c.issueOne(cycle); slot >= 0 {
			id = c.slots[slot].ID
		}
		picks = append(picks, id)
	}
	c.reap()
	return picks
}

// Programs of the scheduler mix, beside hotpath_test's fragStyle (ROP
// fences, texture, SFU), saxpyStyle and aluStyle (global memory,
// divergence, scratchpad, barriers).
var (
	// Odd warps of a block leave before the barrier their siblings wait at.
	schedEarlyExit = shader.MustAssemble("early_exit", shader.KindCompute, `
		movs r0, %wid
		and  r1, r0, 1
		setp.eq.i p0, r1, 1
		@p0 exit
		movs r2, %tid
		shl  r3, r2, 2
		sts  [r3], r2
		bar
		lds  r4, [r3]
		rcp  r5, r4
		bar
		exit
	`)
	// SFU throughput stalls and atomics' timed stalls, back to back.
	schedAtom = shader.MustAssemble("atom_sfu", shader.KindCompute, `
		movs r0, %tid
		movs r1, %ctaid
		cvt.i2f r2, r0
		sin  r3, r2
		rcp  r4, r3
		atom.add r5, [r1+512], r3
		ex2  r6, r4
		atom.add r7, [r1+516], r6
		add  r8, r5, r7
		exit
	`)
	// A raster op right behind a depth read nothing waited for: the ROP
	// fence, which fragStyle's dependences never reach.
	schedROP = shader.MustAssemble("rop_fence", shader.KindFragment, `
		attr4 r0, 0
		zld   r12
		fbld  r14
		movs  r13, %fz
		setp.le.f p0, r13, r12
		@p0 zst r13
		unpk4 r16, r14
		pack4 r15, r16
		@p0 fbst r15
		exit
	`)
	// Independent instructions: a warp can issue from both schedulers in
	// one cycle, which is when the greedy warp is not the one the other
	// scheduler just ran (and, at cycle 1, is one that never issued).
	schedIndep = shader.MustAssemble("indep", shader.KindCompute, `
		mov r1, 1.0
		mov r2, 2.0
		mov r3, 3.0
		mov r4, 4.0
		mov r5, 5.0
		mov r6, 6.0
		add r7, r1, r2
		exit
	`)
	// 32 transactions a load: drives the LSU ring past txQueueDepth.
	schedScatter = shader.MustAssemble("scatter", shader.KindCompute, `
		movs r0, %tid
		movs r1, %ctaid
		shl  r2, r0, 7
		iadd r2, r2, r1
		ldg  r3, [r2]
		ldg  r4, [r2+4096]
		ldg  r5, [r2+8192]
		add  r6, r3, r4
		stg  [r2+64], r6
		ldg  r7, [r2+12288]
		exit
	`)
)

// schedRig is one core with its own memory and next level.
type schedRig struct {
	c        *Core
	env      *testEnv
	lat      *rand.Rand
	inflight []schedFill
}

type schedFill struct {
	at uint64
	r  *mem.Request
}

func newSchedRig(cfg CoreConfig, outCap int, seed int64) *schedRig {
	r := &schedRig{c: NewCore(cfg, nil), env: newTestEnv(), lat: rand.New(rand.NewSource(seed))}
	r.env.attrs[0] = [4]float32{0.25, 0.5, 0.75, 1}
	r.env.texVal = [4]float32{0.1, 0.2, 0.3, 0.4}
	r.c.Out = mem.NewQueue(outCap)
	return r
}

// nextLevel takes up to take requests off the core's port and answers
// each after a seeded delay of up to slow cycles.
func (r *schedRig) nextLevel(cycle uint64, take, slow int) {
	for ; take > 0 && r.c.Out.Len() > 0; take-- {
		r.inflight = append(r.inflight, schedFill{cycle + 1 + uint64(r.lat.Intn(slow)), r.c.Out.Pop()})
	}
	kept := r.inflight[:0]
	for _, f := range r.inflight {
		if f.at <= cycle {
			f.r.Complete(cycle)
		} else {
			kept = append(kept, f)
		}
	}
	r.inflight = kept
}

func (r *schedRig) counters() [7]int64 {
	c := r.c
	return [7]int64{c.instrs.Value(), c.cycles.Value(), c.issueIdle.Value(), c.memStalls.Value(),
		c.warpsRetired.Value(), c.divergences.Value(), c.threadsRetired.Value()}
}

// TestReadySetAgainstFullScanReference drives three cores through the
// same seeded launches and the same next level: one ticked by Core.Tick,
// one by the same steps taken apart (to read every slot's pick), one
// scheduled by the full-scan reference. Every slot must pick the same
// warp, every cycle must report the same NextWake, no warp outside the
// awake set may be ready, and the counters must end equal.
func TestReadySetAgainstFullScanReference(t *testing.T) {
	progs := []struct {
		prog  *shader.Program
		block bool
	}{
		{fragStyle, false}, {saxpyStyle, true}, {aluStyle, true},
		{schedEarlyExit, true}, {schedAtom, false}, {schedScatter, false}, {schedROP, false}, {schedIndep, false},
	}
	everyCycle := os.Getenv("EMERALD_GUARD") == "1"
	var lsuSleeps, timedSleeps, relaunches, refusals, wide int
	for _, tc := range []struct {
		gto              bool
		scheds, maxWarps int
		outCap, slow     int // next level: port depth (0 = unbounded), worst answer delay
		refuse           bool
	}{
		{gto: true, scheds: 2, maxWarps: 64, slow: 40},
		{gto: true, scheds: 1, maxWarps: 10, slow: 40},
		{gto: false, scheds: 2, maxWarps: 10, slow: 8},
		{gto: false, scheds: 1, maxWarps: 70, slow: 200},
		{gto: true, scheds: 2, maxWarps: 80, outCap: 6, slow: 300, refuse: true},
	} {
		name := fmt.Sprintf("gto=%v/scheds=%d/warps=%d/refuse=%v", tc.gto, tc.scheds, tc.maxWarps, tc.refuse)
		cfg := DefaultCoreConfig()
		cfg.GTO, cfg.Schedulers, cfg.MaxWarps = tc.gto, tc.scheds, tc.maxWarps
		seed := int64(tc.maxWarps*4 + tc.scheds)
		real, stepped, refRig := newSchedRig(cfg, tc.outCap, seed), newSchedRig(cfg, tc.outCap, seed), newSchedRig(cfg, tc.outCap, seed)
		rigs := []*schedRig{real, stepped, refRig}
		ref := &refSched{c: refRig.c}
		g := guard.NewChecker()
		real.c.AttachGuard(g)
		script := rand.New(rand.NewSource(seed))
		blockSeq, launches := 0, 0

		launchBurst := func(pi int) {
			p := progs[pi]
			block := -1
			if p.block {
				blockSeq++
				block = blockSeq
			}
			for k, n := 0, 1+script.Intn(4); k < n; k++ {
				mask := FullMask
				if script.Intn(4) == 0 {
					mask = script.Uint32() | 1
				}
				var sp [WarpSize]shader.Special
				for i := range sp {
					sp[i] = shader.Special{TID: uint32(i), NTID: WarpSize, WID: uint32(k),
						CTAID: uint32(0x100_0000 + launches%24*0x1_0000), FZ: 0x3F000000}
				}
				if can := real.c.CanLaunch(p.prog); can != stepped.c.CanLaunch(p.prog) || can != refRig.c.CanLaunch(p.prog) {
					t.Fatalf("%s: the cores disagree on CanLaunch", name)
				} else if !can {
					return
				}
				for _, r := range rigs {
					w, err := r.c.Launch(p.prog, r.env, block, mask, sp, nil)
					if err != nil {
						t.Fatal(err)
					}
					if r == refRig {
						ref.launched(w)
					}
				}
				launches++
			}
		}

		const window = 5000
		launchBurst(len(progs) - 1) // resident before the first tick: the cycle 0 and 1 greedy rule
		for cycle := uint64(0); ; cycle++ {
			if cycle > 400_000 {
				t.Fatalf("%s: the cores never drained", name)
			}
			if cycle < window && script.Intn(5) == 0 {
				launchBurst(script.Intn(len(progs)))
			}
			wake := real.c.NextWake(cycle)
			if w2, w3 := stepped.c.NextWake(cycle), ref.nextWake(cycle); wake != w2 || wake != w3 {
				t.Fatalf("%s cycle %d: NextWake %d (Tick), %d (stepped), %d (reference)", name, cycle, wake, w2, w3)
			}
			real.c.Tick(cycle)
			got, want := steppedTick(stepped.c, cycle), ref.tick(cycle)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s cycle %d: slots issued warps %v, the reference %v", name, cycle, got, want)
			}
			c := stepped.c
			for _, s := range c.order {
				if w := c.slots[s]; !c.awake.has(int(s)) && c.warpReady(w, cycle) {
					t.Fatalf("%s cycle %d: warp %d is ready but outside the awake set", name, cycle, w.ID)
				}
			}
			if c.lsuWait.any() {
				lsuSleeps++
			}
			if c.timed.any() {
				timedSleeps++
			}
			if len(c.order) > 64 { // the ready set's second word
				wide++
			}
			if everyCycle || cycle%16 == 0 {
				g.Tick(cycle)
				if v := g.Violations(); len(v) != 0 {
					t.Fatalf("%s cycle %d: guard: %v", name, cycle, v)
				}
			}
			// The next level takes two requests a cycle; a refusing one
			// takes none for 150 cycles in every 400.
			take := 2
			if tc.refuse && cycle%400 < 150 {
				take = 0
				refusals++
			}
			for _, r := range rigs {
				r.nextLevel(cycle, take, tc.slow)
			}
			if cycle >= window && real.c.Idle() && stepped.c.Idle() && refRig.c.Idle() &&
				len(real.inflight)+len(stepped.inflight)+len(refRig.inflight) == 0 {
				break
			}
		}
		if a, b, c := real.counters(), stepped.counters(), refRig.counters(); a != b || a != c {
			t.Fatalf("%s: instructions, cycles, issue_idle, mem_stalls, warps_retired, divergences, threads_retired:\n%v (Tick)\n%v (stepped)\n%v (reference)",
				name, a, b, c)
		}
		if int(real.c.warpsRetired.Value()) != launches || real.env.retired != launches {
			t.Fatalf("%s: %d of %d warps retired", name, real.c.warpsRetired.Value(), launches)
		}
		if launches > 2*tc.maxWarps {
			relaunches++
		}
		t.Logf("%s: %d warps, counters %v", name, launches, real.counters())
		if tc.refuse && real.c.memStalls.Value() == 0 {
			t.Fatalf("%s: a refusing next level never stalled the LSU", name)
		}
	}
	if lsuSleeps == 0 || timedSleeps == 0 || relaunches == 0 || refusals == 0 || wide == 0 {
		t.Fatalf("coverage lost: %d cycles with warps asleep on LSU room, %d with timed sleepers, %d with more than 64 resident, %d cases reusing slots, %d refused cycles",
			lsuSleeps, timedSleeps, wide, relaunches, refusals)
	}
}
