package cpu

import (
	"fmt"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/mem"
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
	// memo is kept in both modes; park gates only whether Parked lets
	// the owner skip the core, so the reference mode still ticks every
	// cycle and stays an oracle for the memo. Under a guard (audit) a
	// cycle inside the memo is ticked too (auditing), and lostWait
	// describes the first tick there that was not a gated no-op.
	waitUntil, waitFills, fills uint64
	park, audit, auditing       bool
	lostWait                    string

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
		park:        true,
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

// SetPark toggles whether Parked lets the owner skip the core while its
// memoised wake holds (see Core.waitUntil). The memo is maintained in
// both modes, so the toggle never changes simulated state: off, the
// core is ticked every cycle and gates each tick on NextWake itself.
func (c *Core) SetPark(on bool) { c.park = on }

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

// Parked reports whether the owner may skip ticking the core at owner
// cycle at: the memo holds and parking is on. Under a guard it never
// may; the ticks of a cycle inside the memo are audited instead.
func (c *Core) Parked(at uint64) bool {
	if at >= c.waitUntil || c.fills != c.waitFills {
		return false
	}
	if c.audit {
		c.auditing = true
		return false
	}
	return c.park
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
// every mode, and the owner memoises it with Park.
func (c *Core) NextWake(cycle uint64) uint64 {
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

// Tick advances the core one CPU cycle.
func (c *Core) Tick(cycle uint64) {
	if c.NextWake(cycle) > cycle {
		return // only a stall cycle to burn
	}
	if c.auditing && c.lostWait == "" {
		c.lostWait = fmt.Sprintf("cpu%d: waiting until %d, but due at CPU cycle %d", c.Cfg.ID, c.waitUntil, cycle)
	}
	// Cache maintenance + miss plumbing every cycle.
	c.L1I.Tick(cycle)
	c.L1D.Tick(cycle)
	c.L2.Tick(cycle)
	c.drainTo(c.L1I.Out)
	c.drainTo(c.L1D.Out)
	c.L2.Out.DrainTo(c.Out)

	if c.halted || c.waitingMem {
		c.stallCycles.Inc()
		return
	}
	if c.stallUntil > cycle {
		c.stallCycles.Inc()
		return
	}
	if int(c.PC) >= len(c.prog.Code) {
		c.halted = true
		return
	}

	// Instruction fetch through L1I (4-byte instructions).
	iaddr := c.codeBase + uint64(c.PC)*4
	switch c.L1I.Access(cycle, iaddr, mem.Read, c) {
	case cache.Miss:
		c.icMisses.Inc()
		c.waitingMem = true
		return
	case cache.Blocked:
		return
	}

	in := c.prog.Code[c.PC]
	c.execute(in, cycle)
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

func (c *Core) execute(in Instr, cycle uint64) {
	advance := true
	cost := uint64(1)
	r := &c.Regs

	switch in.Op {
	case OpNop:
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
		cost = c.Cfg.MulLatency
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

	case OpLd:
		addr := uint64(r[in.Ra]) + uint64(int64(in.Imm))
		switch c.L1D.Access(cycle, addr, mem.Read, c) {
		case cache.Hit:
			c.stallUntil = cycle + c.Cfg.L1D.HitLatency
		case cache.Miss:
			c.waitingMem = true
		case cache.Blocked:
			return // retry whole instruction
		}
		r[in.Rd] = c.mem.ReadU32(addr)
		c.loads.Inc()

	case OpSt:
		addr := uint64(r[in.Ra]) + uint64(int64(in.Imm))
		switch c.L1D.Access(cycle, addr, mem.Write, nil) {
		case cache.Blocked:
			return
		case cache.Miss:
			// write-allocate: the line is being fetched; the store
			// itself retires (store buffer assumption).
		}
		c.mem.WriteU32(addr, r[in.Rb])
		c.stores.Inc()

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
			c.PC = in.Target
			advance = false
			cost = 1 + c.Cfg.BranchCost
		}

	case OpJmp:
		c.PC = in.Target
		advance = false
		cost = 1 + c.Cfg.BranchCost

	case OpSys:
		c.sysCalls.Inc()
		if c.Sys == nil {
			c.halted = true
			return
		}
		ret, done := c.Sys(c, in.Imm)
		if !done {
			c.sysCalls.Add(-1) // retried, count once
			c.stallUntil = cycle + 1
			if c.sleepUntil > c.stallUntil {
				c.stallUntil = c.sleepUntil
			}
			c.sleepUntil = 0
			return
		}
		r[1] = ret

	case OpHalt:
		c.halted = true
		return
	}

	c.instrs.Inc()
	if advance {
		c.PC++
	}
	if cost > 1 {
		c.stallUntil = cycle + cost - 1
	}
	if c.sleepUntil > c.stallUntil && c.sleepUntil > cycle {
		c.stallUntil = c.sleepUntil
	}
	c.sleepUntil = 0
}
