package cpu

import (
	"fmt"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/stats"
)

// Config describes one CPU core (paper Table 5: 4 cores, 32 KB L1, 1 MB
// private L2).
type Config struct {
	ID         int
	L1I, L1D   cache.Config
	L2         cache.Config
	MulLatency uint64
	BranchCost uint64
}

// DefaultConfig mirrors Table 5.
func DefaultConfig(id int) Config {
	return Config{
		ID: id,
		L1I: cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4,
			HitLatency: 1, MSHRs: 4},
		L1D: cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4,
			HitLatency: 2, MSHRs: 8, WriteBack: true, Allocate: true},
		L2: cache.Config{SizeBytes: 1024 * 1024, LineBytes: 64, Ways: 8,
			HitLatency: 12, MSHRs: 16, WriteBack: true, Allocate: true},
		MulLatency: 3,
		BranchCost: 2,
	}
}

// SysHandler services sys instructions: the SoC "OS/driver" hook.
// It returns (result, done); done=false blocks the core, and the
// instruction retries next cycle (modeling a waiting syscall).
type SysHandler func(c *Core, code int32) (uint32, bool)

// Core is an in-order timing CPU. Instruction fetch is timed through
// L1I, data through L1D, both backed by a private L2 whose misses leave
// through Out toward the system NoC.
type Core struct {
	Cfg  Config
	Regs [NumRegs]uint32
	PC   uint32

	prog *Program
	mem  *mem.Memory

	L1I, L1D, L2 *cache.Cache
	Out          *mem.Queue

	Sys SysHandler

	halted     bool
	stallUntil uint64
	waitingMem bool
	// sleepUntil is a voluntary park deadline (CPU cycles) set by the
	// SysHandler (a vsync wait); it extends the stall window of the
	// in-flight sys instruction so the wait stops burning cycles.
	sleepUntil uint64

	// codeBase is the synthetic address of the program text for L1I
	// accesses.
	codeBase uint64

	// waitUntil memoises the core's wake in its owner's cycles: Park
	// stores it after each owner tick, with the L2 fill count it saw
	// (waitFills). A completing L2 fill is the only input that reaches a
	// parked core from outside (cache.CountFills): L1 fills and the
	// L1-to-L2 drain happen inside its own Tick, and a core with
	// requests in Out is never parked, since NextWake answers now. The
	// owner's loop skips the core while the memo holds; one that ticks
	// every cycle (every-cycle mode) gates each tick on NextWake and
	// stays an oracle for the memo. Under a guard (audit) an owner tick
	// inside the memo is audited (auditing), and lostWait describes the
	// first tick there that was not a gated no-op.
	waitUntil, waitFills, fills uint64
	audit, auditing             bool
	lostWait                    string

	// A planned run (plan): runLeft register-only instructions, the
	// next of them issuing at runNext, and runEnd the issue cycle of
	// the instruction after the run. Sync commits them.
	runLeft         int
	runNext, runEnd uint64

	instrs, loads, stores, icMisses *stats.Counter
	sysCalls                        *stats.Counter
	stallCycles                     *stats.Counter
}

// NewCore builds a core running prog against memory m. reg may be nil.
func NewCore(cfg Config, prog *Program, m *mem.Memory, reg *stats.Registry) *Core {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	scope := reg.Scope(fmt.Sprintf("cpu%d", cfg.ID))
	mk := func(name string, cc cache.Config) *cache.Cache {
		cc.Name = name
		cc.Client = mem.ClientCPU
		cc.ClientID = cfg.ID
		return cache.New(cc, scope)
	}
	c := &Core{
		Cfg:         cfg,
		prog:        prog,
		mem:         m,
		L1I:         mk("l1i", cfg.L1I),
		L1D:         mk("l1d", cfg.L1D),
		L2:          mk("l2", cfg.L2),
		Out:         mem.NewQueue(0),
		codeBase:    0xF000_0000 + uint64(cfg.ID)<<20,
		instrs:      scope.Counter("instructions"),
		loads:       scope.Counter("loads"),
		stores:      scope.Counter("stores"),
		icMisses:    scope.Counter("icache_misses"),
		sysCalls:    scope.Counter("syscalls"),
		stallCycles: scope.Counter("stall_cycles"),
	}
	c.L1D.OnReady = func(any, uint64) { c.waitingMem = false }
	c.L1I.OnReady = func(any, uint64) { c.waitingMem = false }
	// The private L2's waiters are the L1s' fill requests.
	c.L2.OnReady = func(w any, cycle uint64) {
		if r, ok := w.(*mem.Request); ok && r != nil {
			r.Complete(cycle)
		}
	}
	c.L2.CountFills(&c.fills)
	return c
}

// Park memoises the core's wake as until, in the owner's cycles: the
// first owner cycle whose CPU cycles hold one that NextWake reports
// due. The owner converts NextWake to its clock after each tick.
func (c *Core) Park(until uint64) {
	c.waitUntil, c.waitFills, c.auditing = until, c.fills, false
}

// WaitUntil answers the memoised wake at owner cycle at: until while
// the memo holds, at once its cycle has come or an L2 fill completed.
func (c *Core) WaitUntil(at uint64) uint64 {
	if at < c.waitUntil && c.fills == c.waitFills {
		return c.waitUntil
	}
	return at
}

// Part is the core as its owner's par.Loop drives it, mult CPU cycles
// per owner cycle. A tick runs the CPU cycles of one owner cycle, hands
// what the core sends downstream to port and memoises its wake in
// owner cycles (Park); the memo is the part's wake (WaitUntil), and a
// wait charges nothing. Under a guard the loop ticks a core inside its
// memo, and the tick is audited.
func (c *Core) Part(mult uint64, port *mem.Queue) par.Part {
	return par.Part{
		Tick: func(at uint64) {
			c.auditing = c.audit && c.WaitUntil(at) > at
			for k := at * mult; k < (at+1)*mult; k++ {
				c.Tick(k)
			}
			c.Out.DrainTo(port)
			// CPU cycle w falls inside owner cycle w/mult, whose tick
			// covers it.
			w := c.NextWake((at + 1) * mult)
			if w != mem.NeverWake {
				w = max(w/mult, at+1)
			}
			c.Park(w)
		},
		NextWake: c.WaitUntil,
	}
}

// AttachTracer arms cache event tracing on the core's cache hierarchy.
func (c *Core) AttachTracer(t *emtrace.Tracer) {
	track := fmt.Sprintf("cpu%d", c.Cfg.ID)
	c.L1I.SetTracer(t, track+".l1i")
	c.L1D.SetTracer(t, track+".l1d")
	c.L2.SetTracer(t, track+".l2")
}

// Instructions returns the retired instruction count.
func (c *Core) Instructions() int64 { return c.instrs.Value() }

// SleepUntil parks the core until the given CPU cycle. It must be
// called from inside the SysHandler: the deadline is folded into the
// current instruction's stall window when it retires or retries.
func (c *Core) SleepUntil(cycle uint64) { c.sleepUntil = cycle }

// NextWake returns the earliest future CPU cycle at which the core's
// state can change on its own: now when it can issue or a cache has
// actionable work, the stall deadline when sleeping or executing a
// multi-cycle op, and mem.NeverWake when halted or blocked on a memory
// fill whose completion is accounted for downstream (NoC/DRAM). It is
// the core's one wake definition: Tick gates on it every cycle, in
// every mode, and the owner memoises it with Park. While a planned run
// holds, it is the issue cycle of the instruction after the run.
func (c *Core) NextWake(cycle uint64) uint64 {
	if c.runLeft > 0 {
		return max(c.runEnd, cycle)
	}
	running := !c.halted && !c.waitingMem
	if (running && c.stallUntil <= cycle) || c.Out.Len() > 0 {
		return cycle
	}
	w := c.L1I.NextWake(cycle)
	if v := c.L1D.NextWake(cycle); v < w {
		w = v
	}
	if v := c.L2.NextWake(cycle); v < w {
		w = v
	}
	if running && c.stallUntil < w {
		w = c.stallUntil
	}
	if w <= cycle {
		return cycle
	}
	return w
}

// Tick advances the core one CPU cycle: step, then, when an
// instruction issued, plan the register-only run that follows it.
func (c *Core) Tick(cycle uint64) {
	if c.step(cycle) {
		c.plan(cycle)
	}
}

// step is Tick without the plan: the core issuing at most one
// instruction per due cycle, which TestPlannedRunMatchesSteppedCore
// holds a planning core to. It reports whether one issued.
func (c *Core) step(cycle uint64) bool {
	if c.NextWake(cycle) > cycle {
		return false // only a stall cycle to burn
	}
	if c.auditing && c.lostWait == "" {
		c.lostWait = fmt.Sprintf("cpu%d: waiting until %d, but due at CPU cycle %d", c.Cfg.ID, c.waitUntil, cycle)
	}
	if c.runLeft > 0 {
		c.Sync(cycle)
	}
	// Cache maintenance + miss plumbing every cycle.
	c.L1I.Tick(cycle)
	c.L1D.Tick(cycle)
	c.L2.Tick(cycle)
	c.drainTo(c.L1I.Out)
	c.drainTo(c.L1D.Out)
	c.L2.Out.DrainTo(c.Out)

	if c.halted || c.waitingMem || c.stallUntil > cycle {
		c.stallCycles.Inc()
		return false
	}
	if int(c.PC) >= len(c.prog.Code) {
		c.halted = true
		return false
	}

	// Instruction fetch through L1I (4-byte instructions).
	switch c.L1I.Access(cycle, c.codeBase+uint64(c.PC)*4, mem.Read, c) {
	case cache.Miss:
		c.icMisses.Inc()
		c.waitingMem = true
		return false
	case cache.Blocked:
		return false
	}
	return c.execute(c.prog.Code[c.PC], cycle)
}

// maxRun caps a planned run. The instruction after a capped run issues
// from Tick and plans the rest, so where the cap falls changes nothing.
const maxRun = 256

// quiet reports that nothing outside the core can reach it: no cache
// has work or an outstanding miss, and Out is empty. Only the core's
// own ld, st or missing fetch gives its caches work again.
func (c *Core) quiet() bool {
	for _, k := range [...]*cache.Cache{c.L1I, c.L1D, c.L2} {
		if k.NextWake(0) != mem.NeverWake || k.PendingMisses() > 0 {
			return false
		}
	}
	return c.Out.Len() == 0
}

// plan looks past the instruction just issued at cycle for a run of
// register-only instructions (every op but ld, st, sys and halt) whose
// fetches hit in L1I. While the core is quiet such a run touches
// nothing outside the core, so its end is known now: NextWake answers
// the issue cycle of the instruction after it, and the run commits
// when the core is next due (Sync). The run is worked out on a copy of
// the registers with Tick's issue rule, next = max(t+1, stallUntil).
func (c *Core) plan(cycle uint64) {
	if c.halted || c.waitingMem || !c.quiet() {
		return
	}
	regs, pc, stall := c.Regs, c.PC, c.stallUntil
	first := max(cycle+1, stall)
	at, n := first, 0
	for ; n < maxRun && int(pc) < len(c.prog.Code); n++ {
		in := c.prog.Code[pc]
		if in.Op == OpLd || in.Op == OpSt || in.Op == OpSys || in.Op == OpHalt ||
			!c.L1I.Contains(c.codeBase+uint64(pc)*4) {
			break
		}
		var cost uint64
		pc, cost = c.regOp(in, pc, &regs)
		if cost > 1 {
			stall = at + cost - 1
		}
		at = max(at+1, stall)
	}
	c.runLeft, c.runNext, c.runEnd = n, first, at
}

// Sync commits the planned instructions that issue before CPU cycle
// end, in order, each at its own cycle: its L1I fetch, then execute.
// The core is then what ticking every cycle before end leaves. Tick
// commits a run when the core is next due; an owner calls Sync before
// it reads the core between ticks or at the end of a run. Under a
// guard a commit checks that the core stayed quiet since the plan.
func (c *Core) Sync(end uint64) {
	if c.runLeft == 0 {
		return
	}
	if c.audit && c.lostWait == "" && !c.quiet() {
		c.lostWait = fmt.Sprintf("cpu%d: a cache got work inside the run planned to end at CPU cycle %d", c.Cfg.ID, c.runEnd)
	}
	for c.runLeft > 0 && c.runNext < end {
		at := c.runNext
		c.L1I.Access(at, c.codeBase+uint64(c.PC)*4, mem.Read, c)
		c.execute(c.prog.Code[c.PC], at)
		c.runLeft--
		c.runNext = max(at+1, c.stallUntil)
	}
}

// drainTo forwards an L1's miss traffic into the private L2.
func (c *Core) drainTo(q *mem.Queue) {
	for {
		r := q.Peek()
		if r == nil {
			return
		}
		if r.Kind == mem.Write {
			if c.L2.Access(0, r.Addr, mem.Write, nil) == cache.Blocked {
				return // left at the front: retried next cycle
			}
			q.Pop()
			r.Complete(0)
			continue
		}
		switch c.L2.Access(0, r.Addr, mem.Read, r) {
		case cache.Hit:
			q.Pop()
			r.Complete(0) // L2 hit latency folded into L1 fill handling
		case cache.Miss:
			q.Pop() // completed when the L2 fill returns
		case cache.Blocked:
			return
		}
	}
}

// execute issues in at cycle and reports whether it retired; a blocked
// access or an unfinished sys leaves it to retry.
func (c *Core) execute(in Instr, cycle uint64) bool {
	next, cost := c.PC+1, uint64(1)
	r := &c.Regs

	switch in.Op {
	case OpLd:
		addr := uint64(r[in.Ra]) + uint64(int64(in.Imm))
		switch c.L1D.Access(cycle, addr, mem.Read, c) {
		case cache.Hit:
			c.stallUntil = cycle + c.Cfg.L1D.HitLatency
		case cache.Miss:
			c.waitingMem = true
		case cache.Blocked:
			return false // retry whole instruction
		}
		r[in.Rd] = c.mem.ReadU32(addr)
		c.loads.Inc()

	case OpSt:
		addr := uint64(r[in.Ra]) + uint64(int64(in.Imm))
		switch c.L1D.Access(cycle, addr, mem.Write, nil) {
		case cache.Blocked:
			return false
		case cache.Miss:
			// write-allocate: the line is being fetched; the store
			// itself retires (store buffer assumption).
		}
		c.mem.WriteU32(addr, r[in.Rb])
		c.stores.Inc()

	case OpSys:
		c.sysCalls.Inc()
		if c.Sys == nil {
			c.halted = true
			return false
		}
		ret, done := c.Sys(c, in.Imm)
		if !done {
			c.sysCalls.Add(-1) // retried, count once
			c.stallUntil = cycle + 1
			if c.sleepUntil > c.stallUntil {
				c.stallUntil = c.sleepUntil
			}
			c.sleepUntil = 0
			return false
		}
		r[1] = ret

	case OpHalt:
		c.halted = true
		return false

	default:
		next, cost = c.regOp(in, c.PC, r)
	}

	c.instrs.Inc()
	c.PC = next
	if cost > 1 {
		c.stallUntil = cycle + cost - 1
	}
	if c.sleepUntil > c.stallUntil && c.sleepUntil > cycle {
		c.stallUntil = c.sleepUntil
	}
	c.sleepUntil = 0
	return true
}

// regOp is the one definition of the register-only instructions, used
// by execute and by plan: it applies in, fetched at pc, to r and
// returns the next pc and the instruction's cost in cycles.
func (c *Core) regOp(in Instr, pc uint32, r *[NumRegs]uint32) (uint32, uint64) {
	switch in.Op {
	case OpMovi:
		r[in.Rd] = uint32(in.Imm)
	case OpMov:
		r[in.Rd] = r[in.Ra]
	case OpAdd:
		r[in.Rd] = r[in.Ra] + r[in.Rb]
	case OpSub:
		r[in.Rd] = r[in.Ra] - r[in.Rb]
	case OpMul:
		r[in.Rd] = r[in.Ra] * r[in.Rb]
		return pc + 1, c.Cfg.MulLatency
	case OpAnd:
		r[in.Rd] = r[in.Ra] & r[in.Rb]
	case OpOr:
		r[in.Rd] = r[in.Ra] | r[in.Rb]
	case OpXor:
		r[in.Rd] = r[in.Ra] ^ r[in.Rb]
	case OpShl:
		r[in.Rd] = r[in.Ra] << (r[in.Rb] & 31)
	case OpShr:
		r[in.Rd] = r[in.Ra] >> (r[in.Rb] & 31)
	case OpAddi:
		r[in.Rd] = r[in.Ra] + uint32(in.Imm)
	case OpBeq, OpBne, OpBlt, OpBge:
		taken := false
		switch in.Op {
		case OpBeq:
			taken = r[in.Ra] == r[in.Rb]
		case OpBne:
			taken = r[in.Ra] != r[in.Rb]
		case OpBlt:
			taken = int32(r[in.Ra]) < int32(r[in.Rb])
		case OpBge:
			taken = int32(r[in.Ra]) >= int32(r[in.Rb])
		}
		if taken {
			return in.Target, 1 + c.Cfg.BranchCost
		}
	case OpJmp:
		return in.Target, 1 + c.Cfg.BranchCost
	}
	return pc + 1, 1
}
