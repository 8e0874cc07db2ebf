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
	"emerald/internal/stats"
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

// refTickMemory is Core.tickMemory with the LSU the core had before its
// head waited for room: a transaction its cache refused is re-offered
// every cycle.
func refTickMemory(c *Core, cycle uint64) {
	for i := range c.events {
		for q := &c.events[i].q; q.Len() > 0 && q.Front().at <= cycle; c.nEvents-- {
			c.completeEvent(q.Pop())
		}
	}
	for _, ca := range []*cache.Cache{c.L1D, c.L1T, c.L1Z, c.L1C} {
		ca.Tick(cycle)
	}
	for _, ca := range []*cache.Cache{c.L1D, c.L1T, c.L1Z, c.L1C} {
		ca.Out.DrainTo(c.Out)
	}
	for n := 0; c.txLen > 0 && n < c.Cfg.LSUWidth; n++ {
		tx := &c.txq[c.txHead]
		lat := uint64(1)
		if tx.cache == nil {
			if c.Out.Full() {
				c.memStalls.Inc()
				return
			}
			c.Out.MustPush(c.reqs.Fire(mem.Request{
				Addr: tx.addr, Size: 16, Kind: mem.Write,
				Client: mem.ClientGPU, ClientID: c.Cfg.ClusterID, IssuedAt: cycle,
			}))
		} else {
			switch tx.cache.Access(cycle, tx.addr, tx.kind, tx.op) {
			case cache.Hit:
				lat = tx.cache.Config().HitLatency
			case cache.Miss:
				c.popTx()
				continue
			case cache.Blocked:
				c.memStalls.Inc()
				return
			}
		}
		if tx.op != nil {
			c.schedule(cycle, lat, wbEvent{op: tx.op})
		}
		c.popTx()
	}
}

// tick is the old Core.Tick around the reference scheduler and LSU. It
// returns the warp ID each scheduler slot issued, nil for a gated cycle.
func (r *refSched) tick(cycle uint64) []int {
	c := r.c
	c.curCycle = cycle
	if r.nextWake(cycle) > cycle {
		return nil
	}
	c.cycles.Inc()
	refTickMemory(c, cycle)
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
	// Stores into lines just loaded: write-through store hits, each
	// lane its own line, which a short L1D port refuses in bursts.
	schedStoreHits = shader.MustAssemble("store_hits", shader.KindCompute, `
		movs r0, %tid
		movs r1, %ctaid
		shl  r2, r0, 7
		iadd r2, r2, r1
		ldg  r3, [r2]
		stg  [r2], r3
		stg  [r2+4], r3
		ldg  r4, [r2+4096]
		stg  [r2+8], r4
		stg  [r2+4096], r4
		stg  [r2+12], r3
		exit
	`)
)

// schedRig is one core with its own memory and next level.
type schedRig struct {
	c        *Core
	reg      *stats.Registry
	env      *testEnv
	lat      *rand.Rand
	inflight []schedFill
}

type schedFill struct {
	at uint64
	r  *mem.Request
}

func newSchedRig(cfg CoreConfig, outCap, l1dOut int, seed int64) *schedRig {
	reg := stats.NewRegistry()
	r := &schedRig{c: NewCore(cfg, reg), reg: reg, env: newTestEnv(), lat: rand.New(rand.NewSource(seed))}
	r.env.attrs[0] = [4]float32{0.25, 0.5, 0.75, 1}
	r.env.texVal = [4]float32{0.1, 0.2, 0.3, 0.4}
	r.c.Out = mem.NewQueue(outCap)
	if l1dOut > 0 {
		r.c.L1D.Out = mem.NewQueue(l1dOut)
	}
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

// memCounters is what the LSU's refusals move: its stall counter and
// each L1's accesses, hits, misses and evictions (a refused store hit
// that lost its LRU touch shows up as a different victim later).
func (r *schedRig) memCounters() []int64 {
	c := r.c
	out := []int64{c.memStalls.Value()}
	for _, ca := range []*cache.Cache{c.L1D, c.L1T, c.L1Z, c.L1C} {
		for _, n := range []string{"accesses", "hits", "misses", "evictions"} {
			out = append(out, l1Stat(r.reg, c, ca, n))
		}
	}
	return out
}

// schedCase is one core and next level the scheduler references run.
type schedCase struct {
	gto              bool
	scheds, maxWarps int
	outCap, slow     int // next level: port depth (0 = unbounded), worst answer delay
	refuse           bool
	l1dOut           int // the write-through L1D's port depth (0 = the cache's own)
}

var schedCases = []schedCase{
	{gto: true, scheds: 2, maxWarps: 64, slow: 40},
	{gto: true, scheds: 1, maxWarps: 10, slow: 40},
	{gto: false, scheds: 2, maxWarps: 10, slow: 8},
	{gto: false, scheds: 1, maxWarps: 70, slow: 200},
	{gto: true, scheds: 2, maxWarps: 80, outCap: 6, slow: 300, refuse: true},
	{gto: false, scheds: 2, maxWarps: 48, outCap: 2, slow: 100, refuse: true, l1dOut: 3},
	// An unbounded port behind a refusing next level, as a GPU core's
	// behind its cluster's NoC port: the L1s drain, the port holds.
	{gto: true, scheds: 2, maxWarps: 8, slow: 60, refuse: true},
}

func (tc schedCase) String() string {
	return fmt.Sprintf("gto=%v/scheds=%d/warps=%d/refuse=%v/l1dOut=%d", tc.gto, tc.scheds, tc.maxWarps, tc.refuse, tc.l1dOut)
}

func (tc schedCase) seed() int64 { return int64(tc.maxWarps*4 + tc.scheds) }

// rigs builds n cores of the case on the same seed.
func (tc schedCase) rigs(n int) []*schedRig {
	cfg := DefaultCoreConfig()
	cfg.GTO, cfg.Schedulers, cfg.MaxWarps = tc.gto, tc.scheds, tc.maxWarps
	if tc.l1dOut > 0 {
		// Two ways: a refused store hit's LRU touch can decide the
		// next victim of its set.
		cfg.L1D.SizeBytes, cfg.L1D.Ways = 16384, 2
	}
	rigs := make([]*schedRig, n)
	for i := range rigs {
		rigs[i] = newSchedRig(cfg, tc.outCap, tc.l1dOut, tc.seed())
	}
	return rigs
}

// take is how many requests the next level takes off the port at cycle:
// two a cycle, and a refusing one none for 150 cycles in every 400.
func (tc schedCase) take(cycle uint64) int {
	if tc.refuse && cycle%400 < 150 {
		return 0
	}
	return 2
}

type schedProg struct {
	prog  *shader.Program
	block bool
}

var schedProgs = []schedProg{
	{fragStyle, false}, {saxpyStyle, true}, {aluStyle, true},
	{schedEarlyExit, true}, {schedAtom, false}, {schedScatter, false}, {schedROP, false}, {schedIndep, false},
}

// schedWindow is how many cycles the script launches for; the rigs then
// drain.
const schedWindow = 5000

// schedScript launches the same seeded bursts onto every rig of a case.
type schedScript struct {
	tc                 schedCase
	rigs               []*schedRig
	rnd                *rand.Rand
	blockSeq, launches int
	launched           func(r *schedRig, w *Warp) // nil, or told of every launch
}

func newSchedScript(tc schedCase, rigs []*schedRig) *schedScript {
	return &schedScript{tc: tc, rigs: rigs, rnd: rand.New(rand.NewSource(tc.seed()))}
}

// start launches the burst resident before the first tick: the cycle 0
// and 1 greedy rule.
func (s *schedScript) start(t *testing.T) { s.burst(t, schedProgs[len(schedProgs)-1]) }

// step launches, one cycle in five of the window, a burst of a seeded
// program (store hits half the time when the L1D port is short).
func (s *schedScript) step(t *testing.T, cycle uint64) {
	if cycle < schedWindow && s.rnd.Intn(5) == 0 {
		if p := schedProgs[s.rnd.Intn(len(schedProgs))]; s.tc.l1dOut > 0 && s.rnd.Intn(2) == 0 {
			s.burst(t, schedProg{schedStoreHits, false})
		} else {
			s.burst(t, p)
		}
	}
}

func (s *schedScript) burst(t *testing.T, p schedProg) {
	t.Helper()
	block := -1
	if p.block {
		s.blockSeq++
		block = s.blockSeq
	}
	for k, n := 0, 1+s.rnd.Intn(4); k < n; k++ {
		mask := FullMask
		if s.rnd.Intn(4) == 0 {
			mask = s.rnd.Uint32() | 1
		}
		var sp [WarpSize]shader.Special
		for i := range sp {
			sp[i] = shader.Special{TID: uint32(i), NTID: WarpSize, WID: uint32(k),
				CTAID: uint32(0x100_0000 + s.launches%24*0x1_0000), FZ: 0x3F000000}
		}
		can := s.rigs[0].c.CanLaunch(p.prog)
		for _, r := range s.rigs[1:] {
			if r.c.CanLaunch(p.prog) != can {
				t.Fatalf("%s: the cores disagree on CanLaunch", s.tc)
			}
		}
		if !can {
			return
		}
		for _, r := range s.rigs {
			w, err := r.c.Launch(p.prog, r.env, block, mask, sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.launched != nil {
				s.launched(r, w)
			}
		}
		s.launches++
	}
}

// nextLevel answers every rig's port for cycle, and reports whether the
// script is over and every rig drained.
func (s *schedScript) nextLevel(cycle uint64) bool {
	drained := cycle >= schedWindow
	for _, r := range s.rigs {
		r.nextLevel(cycle, s.tc.take(cycle), s.tc.slow)
		drained = drained && r.c.Idle() && len(r.inflight) == 0
	}
	return drained
}

// TestReadySetAgainstFullScanReference drives three cores through the
// same seeded launches and the same next level: one ticked by Core.Tick,
// one by the same steps taken apart (to read every slot's pick), one
// scheduled by the full-scan reference. Every slot must pick the same
// warp, every cycle must report the same NextWake, no warp outside the
// awake set may be ready, and the counters must end equal.
func TestReadySetAgainstFullScanReference(t *testing.T) {
	everyCycle := os.Getenv("EMERALD_GUARD") == "1"
	var lsuSleeps, timedSleeps, relaunches, refusals, wide, charged, storeHitTraps int
	for _, tc := range schedCases {
		name := tc.String()
		rigs := tc.rigs(3)
		real, stepped, refRig := rigs[0], rigs[1], rigs[2]
		ref := &refSched{c: refRig.c}
		g := guard.NewChecker()
		real.c.AttachGuard(g)
		script := newSchedScript(tc, rigs)
		script.launched = func(r *schedRig, w *Warp) {
			if r == refRig {
				ref.launched(w)
			}
		}

		script.start(t)
		for cycle := uint64(0); ; cycle++ {
			if cycle > 400_000 {
				t.Fatalf("%s: the cores never drained", name)
			}
			script.step(t, cycle)
			wake := real.c.NextWake(cycle)
			if w2, w3 := stepped.c.NextWake(cycle), ref.nextWake(cycle); wake != w2 || wake != w3 {
				t.Fatalf("%s cycle %d: NextWake %d (Tick), %d (stepped), %d (reference)", name, cycle, wake, w2, w3)
			}
			c := stepped.c
			if c.txLen > 0 && c.headParked && c.txq[c.txHead].cache.Room() == c.headRoom {
				charged++
			}
			real.c.Tick(cycle)
			got, want := steppedTick(stepped.c, cycle), ref.tick(cycle)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s cycle %d: slots issued warps %v, the reference %v", name, cycle, got, want)
			}
			if a, b, r := real.memCounters(), stepped.memCounters(), refRig.memCounters(); fmt.Sprint(a) != fmt.Sprint(r) || fmt.Sprint(b) != fmt.Sprint(r) {
				t.Fatalf("%s cycle %d: mem_stalls and L1 accesses/hits/misses/evictions\n%v (Tick)\n%v (stepped)\n%v (reference)", name, cycle, a, b, r)
			}
			if tx := &c.txq[c.txHead]; c.txLen > 0 && c.headParked && tx.cache == c.L1D && tx.kind == mem.Write &&
				c.L1D.Contains(tx.addr) && c.L1D.Out.Full() {
				storeHitTraps++
			}
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
			if tc.take(cycle) == 0 {
				refusals++
			}
			if script.nextLevel(cycle) {
				break
			}
		}
		if a, b, c := real.counters(), stepped.counters(), refRig.counters(); a != b || a != c {
			t.Fatalf("%s: instructions, cycles, issue_idle, mem_stalls, warps_retired, divergences, threads_retired:\n%v (Tick)\n%v (stepped)\n%v (reference)",
				name, a, b, c)
		}
		if int(real.c.warpsRetired.Value()) != script.launches || real.env.retired != script.launches {
			t.Fatalf("%s: %d of %d warps retired", name, real.c.warpsRetired.Value(), script.launches)
		}
		if script.launches > 2*tc.maxWarps {
			relaunches++
		}
		t.Logf("%s: %d warps, counters %v", name, script.launches, real.counters())
		if tc.refuse && real.c.memStalls.Value() == 0 {
			t.Fatalf("%s: a refusing next level never stalled the LSU", name)
		}
	}
	if lsuSleeps == 0 || timedSleeps == 0 || relaunches == 0 || refusals == 0 || wide == 0 || charged == 0 || storeHitTraps == 0 {
		t.Fatalf("coverage lost: %d cycles with warps asleep on LSU room, %d with timed sleepers, %d with more than 64 resident, %d cases reusing slots, %d refused cycles, %d LSU heads charged unasked, %d store hits refused for a full L1D port",
			lsuSleeps, timedSleeps, wide, relaunches, refusals, charged, storeHitTraps)
	}
	t.Logf("%d LSU heads charged unasked, %d store hits refused for a full L1D port", charged, storeHitTraps)
}

// TestMemoisedWaitAgainstSteppedTick drives three cores through the
// reference's seeded launches and next level: one ticked by Core.Tick
// with no guard, so it acts on its memoised waits; one ticked by Tick
// under a guard, which runs the full tick on those cycles and audits
// the wait; one by the stepped tick, which never memoises. All the
// counters, each L1's included, must agree after every cycle, not only
// at the end: the counter contract allows no deferred charge. The
// unguarded core must nap, and have naps ended both by a fill
// completing and by a Launch.
func TestMemoisedWaitAgainstSteppedTick(t *testing.T) {
	everyCycle := os.Getenv("EMERALD_GUARD") == "1"
	var gated, charged, parked, audited, napped, fillWakes, launchWakes int
	for _, tc := range schedCases {
		name := tc.String()
		rigs := tc.rigs(3)
		memo, guarded, stepped := rigs[0], rigs[1], rigs[2]
		g := guard.NewChecker()
		guarded.c.AttachGuard(g)
		script := newSchedScript(tc, rigs)
		script.start(t)
		for cycle := uint64(0); ; cycle++ {
			if cycle > 400_000 {
				t.Fatalf("%s: the cores never drained", name)
			}
			napping := func() bool { c := memo.c; return cycle < c.napUntil && c.fills == c.waitFills }
			launches, asleep := script.launches, napping()
			script.step(t, cycle)
			if asleep && script.launches > launches {
				launchWakes++
			}
			if napping() {
				napped++
			}
			if c := memo.c; c.waiting(cycle) {
				switch {
				case c.txLen > 0:
					parked++
				case c.Out.Len() > 0:
					charged++
				default:
					gated++
				}
			}
			if guarded.c.waiting(cycle) {
				audited++
			}
			memo.c.Tick(cycle)
			guarded.c.Tick(cycle)
			steppedTick(stepped.c, cycle)
			want := fmt.Sprint(stepped.counters(), stepped.memCounters(), stepped.c.lastScheduled)
			for _, r := range []*schedRig{memo, guarded} {
				if got := fmt.Sprint(r.counters(), r.memCounters(), r.c.lastScheduled); got != want {
					t.Fatalf("%s cycle %d: counters, L1 counts and LRR rotation\n%s (Tick, guard=%v)\n%s (stepped)",
						name, cycle, got, r == guarded, want)
				}
			}
			if everyCycle || cycle%16 == 0 {
				g.Tick(cycle)
				if v := g.Violations(); len(v) != 0 {
					t.Fatalf("%s cycle %d: guard: %v", name, cycle, v)
				}
			}
			fills, asleep := memo.c.fills, memo.c.napUntil > cycle+1
			if script.nextLevel(cycle) {
				break
			}
			if asleep && memo.c.fills != fills {
				fillWakes++
			}
		}
	}
	if gated == 0 || charged == 0 || parked == 0 || audited == 0 || napped == 0 || fillWakes == 0 || launchWakes == 0 {
		t.Fatalf("coverage lost: memoised waits on %d gated cycles, %d charged behind the port, %d charged for a parked head; %d audited; %d napped, naps ended by %d fills and %d launches",
			gated, charged, parked, audited, napped, fillWakes, launchWakes)
	}
	t.Logf("memoised waits: %d gated cycles, %d charged behind the port, %d charged for a parked head; %d audited; %d napped, naps ended by %d fills and %d launches",
		gated, charged, parked, audited, napped, fillWakes, launchWakes)
}

// TestFillEndsTheNap runs one warp per L1 whose only miss is on that
// L1, on a core ticked by Core.Tick beside one ticked by the stepped
// tick. The next level holds the fill until the first core has napped
// for a while, then completes it: the completion, which that L1 alone
// reports, must end the nap, and the counters must agree every cycle.
func TestFillEndsTheNap(t *testing.T) {
	progs := map[string]*shader.Program{
		"l1d": shader.MustAssemble("ld_global", shader.KindCompute, `
			movs r0, %tid
			shl  r1, r0, 2
			ldg  r2, [r1]
			add  r3, r2, r2
			exit
		`),
		"l1t": shader.MustAssemble("ld_tex", shader.KindFragment, `
			tex4 r4, 0, r0, r1
			add  r8, r4, r4
			exit
		`),
		"l1z": shader.MustAssemble("ld_depth", shader.KindFragment, `
			zld r12
			add r13, r12, r12
			exit
		`),
		"l1c": shader.MustAssemble("ld_const", shader.KindCompute, `
			ldc r2, [32]
			add r3, r2, r2
			exit
		`),
	}
	for _, name := range []string{"l1d", "l1t", "l1z", "l1c"} {
		cfg := DefaultCoreConfig()
		memo, stepped := newSchedRig(cfg, 0, 0, 1), newSchedRig(cfg, 0, 0, 1)
		rigs := []*schedRig{memo, stepped}
		var sp [WarpSize]shader.Special
		for _, r := range rigs {
			if _, err := r.c.Launch(progs[name], r.env, -1, FullMask, sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		held := make([][]*mem.Request, len(rigs))
		napped := 0
		for cycle := uint64(0); ; cycle++ {
			if cycle > 2000 {
				t.Fatalf("%s: the cores never drained (napped %d cycles)", name, napped)
			}
			if c := memo.c; cycle < c.napUntil && c.fills == c.waitFills {
				napped++
			}
			memo.c.Tick(cycle)
			steppedTick(stepped.c, cycle)
			if got, want := fmt.Sprint(memo.counters(), memo.memCounters()), fmt.Sprint(stepped.counters(), stepped.memCounters()); got != want {
				t.Fatalf("%s cycle %d: counters and L1 counts\n%s (Tick)\n%s (stepped)", name, cycle, got, want)
			}
			for i, r := range rigs {
				for r.c.Out.Len() > 0 {
					held[i] = append(held[i], r.c.Out.Pop())
				}
				if napped == 20 {
					for _, f := range held[i] {
						f.Complete(cycle)
					}
					held[i] = nil
				}
			}
			if napped > 20 && memo.c.Idle() && stepped.c.Idle() {
				break
			}
		}
		c := memo.c
		for _, l1 := range []*cache.Cache{c.L1D, c.L1T, c.L1Z, c.L1C} {
			if misses := l1Stat(memo.reg, c, l1, "misses"); (l1.Config().Name == name) != (misses > 0) {
				t.Fatalf("%s: %s missed %d times", name, l1.Config().Name, misses)
			}
		}
		if memo.env.retired != 1 {
			t.Fatalf("%s: %d warps retired, want 1", name, memo.env.retired)
		}
	}
}
