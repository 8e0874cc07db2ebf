package simt

import (
	"fmt"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/shader"
	"emerald/internal/stats"
)

// CoreConfig describes one SIMT core (paper Tables 2, 5 and 7).
type CoreConfig struct {
	ID        int
	ClusterID int

	MaxWarps    int // concurrent warp slots (2048 threads = 64 warps)
	Schedulers  int // warp schedulers issuing 1 instr/cycle each
	RegFile     int // 32-bit registers per core (occupancy limit)
	SharedBytes int // scratchpad size per core

	ALULatency uint64 // cycles to writeback for ALU ops
	SFULatency uint64 // cycles to writeback for SFU ops
	SFUStall   uint64 // extra issue stall after an SFU op (throughput)
	LSUWidth   int    // memory transactions issued per cycle

	// Cache configs (Name/Client filled in by the core).
	L1D, L1T, L1Z, L1C cache.Config

	// GTO selects greedy-then-oldest warp scheduling; false = loose
	// round-robin.
	GTO bool
}

// DefaultCoreConfig mirrors the paper's Case Study II per-core
// configuration (Table 7) with Table 2's cache set.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		MaxWarps:    64, // 2048 threads / 32
		Schedulers:  2,
		RegFile:     65536,
		SharedBytes: 48 * 1024,
		ALULatency:  4,
		SFULatency:  16,
		SFUStall:    4,
		LSUWidth:    1,
		GTO:         true,
		// GPGPU-Sim-style policies: L1D write-through/no-allocate, L1Z
		// write-back (depth is re-read and re-written densely), L1T/L1C
		// read-only.
		L1D: cache.Config{SizeBytes: 32 * 1024, LineBytes: 128, Ways: 8, HitLatency: 28, MSHRs: 64, MSHRTargets: 16, WriteThrough: true},
		L1T: cache.Config{SizeBytes: 48 * 1024, LineBytes: 128, Ways: 24, HitLatency: 30, MSHRs: 96, MSHRTargets: 16},
		L1Z: cache.Config{SizeBytes: 32 * 1024, LineBytes: 128, Ways: 8, HitLatency: 28, MSHRs: 64, MSHRTargets: 16, WriteBack: true, Allocate: true},
		L1C: cache.Config{SizeBytes: 16 * 1024, LineBytes: 128, Ways: 4, HitLatency: 20, MSHRs: 32, MSHRTargets: 16},
	}
}

// transaction is one coalesced memory access belonging to a memOp.
type transaction struct {
	addr  uint64
	kind  mem.Kind
	cache *cache.Cache // nil = raw store to the output port (vertex out)
	op    *memOp
}

// memOp tracks one warp memory instruction until its data returns.
type memOp struct {
	warp      *Warp
	regs      []uint8
	remaining int
	isLoad    bool
}

// wbEvent releases scoreboard entries at a future cycle (ALU/SFU
// latency, cache hit latency).
type wbEvent struct {
	at   uint64
	warp *Warp
	regs []uint8
	op   *memOp // when set, decrement op instead of direct unlock
}

// Core is one SIMT core.
type Core struct {
	Cfg CoreConfig

	warps []*Warp
	// blocks tracks compute thread blocks for barrier handling.
	blocks map[int]*blockState

	L1D, L1T, L1Z, L1C *cache.Cache

	// Out carries this core's miss/writeback traffic toward the cluster
	// and L2. The owner (cluster model) drains it.
	Out *mem.Queue

	// txQueue holds coalesced transactions awaiting cache issue.
	txQueue []*transaction

	events []wbEvent

	lastScheduled int
	warpSeq       uint64

	// trace, when armed via AttachTracer, receives warp launch→retire
	// spans and per-cycle stall-reason instants on traceTrack.
	trace      *emtrace.Tracer
	traceTrack string
	curCycle   uint64 // latest Tick cycle, for launch/retire stamping

	// Stats.
	reg            *stats.Registry
	instrs         *stats.Counter
	cycles         *stats.Counter
	warpsLaunched  *stats.Counter
	warpsRetired   *stats.Counter
	divergences    *stats.Counter
	memStalls      *stats.Counter
	issueIdle      *stats.Counter
	threadsRetired *stats.Counter
}

type blockState struct {
	warps     []*Warp
	atBarrier int
	live      int
}

// NewCore builds a core. reg may be nil.
func NewCore(cfg CoreConfig, reg *stats.Registry) *Core {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.MaxWarps == 0 {
		cfg = DefaultCoreConfig()
	}
	scope := reg.Scope(fmt.Sprintf("core%d_%d", cfg.ClusterID, cfg.ID))
	mkCache := func(name string, c cache.Config) *cache.Cache {
		c.Name = name
		c.Client = mem.ClientGPU
		c.ClientID = cfg.ClusterID
		return cache.New(c, scope)
	}
	core := &Core{
		Cfg:            cfg,
		blocks:         make(map[int]*blockState),
		L1D:            mkCache("l1d", cfg.L1D),
		L1T:            mkCache("l1t", cfg.L1T),
		L1Z:            mkCache("l1z", cfg.L1Z),
		L1C:            mkCache("l1c", cfg.L1C),
		Out:            mem.NewQueue(0),
		reg:            scope,
		instrs:         scope.Counter("instructions"),
		cycles:         scope.Counter("cycles"),
		warpsLaunched:  scope.Counter("warps_launched"),
		warpsRetired:   scope.Counter("warps_retired"),
		divergences:    scope.Counter("divergences"),
		memStalls:      scope.Counter("mem_stalls"),
		issueIdle:      scope.Counter("issue_idle"),
		threadsRetired: scope.Counter("threads_retired"),
	}
	for _, c := range []*cache.Cache{core.L1D, core.L1T, core.L1Z, core.L1C} {
		c.OnReady = core.onCacheReady
	}
	return core
}

// Registry returns the core's stats scope.
func (c *Core) Registry() *stats.Registry { return c.reg }

// AttachTracer arms event tracing on the core and its L1 caches. Track
// names are precomputed here so emitting never builds strings.
func (c *Core) AttachTracer(t *emtrace.Tracer) {
	c.trace = t
	c.traceTrack = fmt.Sprintf("core%d_%d", c.Cfg.ClusterID, c.Cfg.ID)
	c.L1D.SetTracer(t, c.traceTrack+".l1d")
	c.L1T.SetTracer(t, c.traceTrack+".l1t")
	c.L1Z.SetTracer(t, c.traceTrack+".l1z")
	c.L1C.SetTracer(t, c.traceTrack+".l1c")
}

// ActiveWarps returns the number of resident warps.
func (c *Core) ActiveWarps() int { return len(c.warps) }

// regsFree computes remaining register file capacity.
func (c *Core) regsFree() int {
	used := 0
	for _, w := range c.warps {
		used += w.Prog.RegsUsed * WarpSize
	}
	return c.Cfg.RegFile - used
}

// CanLaunch reports whether a warp of prog can be accepted now.
func (c *Core) CanLaunch(prog *shader.Program) bool {
	return len(c.warps) < c.Cfg.MaxWarps && c.regsFree() >= prog.RegsUsed*WarpSize
}

// Launch places a new warp on the core. mask selects live lanes;
// specials seeds per-lane special registers; init may preload registers.
// blockID < 0 means no thread block (graphics warps).
func (c *Core) Launch(prog *shader.Program, env WarpEnv, blockID int, mask uint32,
	specials [WarpSize]shader.Special, init func(lane int, t *shader.Thread)) (*Warp, error) {
	if !c.CanLaunch(prog) {
		return nil, fmt.Errorf("simt: core %d full (%d warps)", c.Cfg.ID, len(c.warps))
	}
	if mask == 0 {
		return nil, fmt.Errorf("simt: empty launch mask")
	}
	w := newWarp(int(c.warpSeq), prog, env, blockID, mask)
	c.warpSeq++
	w.LaunchedAt = c.warpSeq
	w.launchCycle = c.curCycle
	w.Special = specials
	if init != nil {
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<lane) != 0 {
				init(lane, &w.Threads[lane])
			}
		}
	}
	c.warps = append(c.warps, w)
	c.warpsLaunched.Inc()
	if blockID >= 0 {
		b := c.blocks[blockID]
		if b == nil {
			b = &blockState{}
			c.blocks[blockID] = b
		}
		b.warps = append(b.warps, w)
		b.live++
	}
	return w, nil
}

// StampCycle brings the launch-stamp clock current without ticking.
// Owners that skip provably-idle ticks (the GPU's cluster event wheel)
// call this before Launch so warp launch timestamps match a run that
// ticked every cycle.
func (c *Core) StampCycle(cycle uint64) {
	if cycle > c.curCycle {
		c.curCycle = cycle
	}
}

// Idle reports whether the core has no warps and no outstanding memory.
func (c *Core) Idle() bool {
	return len(c.warps) == 0 && len(c.txQueue) == 0 && len(c.events) == 0
}

// NextWake returns the earliest future cycle at which the core's state
// can change on its own: now while any warp is schedulable or
// transactions are live, the earliest park expiry, writeback event or
// cache wake otherwise, mem.NeverWake when fully drained. Warps parked
// on an external dependency (scoreboard held by an in-flight fill,
// barrier) contribute NeverWake here — the fill's arrival flows
// through a cache wake plus the cluster's L2-completion Wake, and
// barrier release can only happen while some sibling executes, i.e.
// while the core is awake anyway. In-flight cache fills are covered
// downstream (NoC/DRAM).
//
// This is the core's one wake definition: Tick gates on it every cycle,
// in every mode, so results never depend on how time is advanced. A
// cycle where every resident warp is parked is a wake in the future:
// the schedulers could not issue anything, so such cycles do not
// increment the cycles / issue_idle counters or emit stall instants.
func (c *Core) NextWake(cycle uint64) uint64 {
	if len(c.txQueue) > 0 || c.Out.Len() > 0 {
		return cycle
	}
	w := uint64(mem.NeverWake)
	for _, wp := range c.warps {
		if wp.parked <= cycle {
			return cycle
		}
		if wp.parked < w {
			w = wp.parked
		}
	}
	if v := c.L1D.NextWake(cycle); v < w {
		w = v
	}
	if v := c.L1T.NextWake(cycle); v < w {
		w = v
	}
	if v := c.L1Z.NextWake(cycle); v < w {
		w = v
	}
	if v := c.L1C.NextWake(cycle); v < w {
		w = v
	}
	for _, e := range c.events {
		if e.at < w {
			w = e.at
		}
	}
	if w <= cycle {
		return cycle
	}
	return w
}

// Tick advances the core one cycle. It reports whether the cycle was
// quiet (a no-op): owners that park idle cores on an event wheel use
// this to skip the precise NextWake computation while the core is
// demonstrably busy, paying it only on the busy→quiet transition.
func (c *Core) Tick(cycle uint64) (quiet bool) {
	// curCycle must be stamped before the idle gate: Launch reads it
	// for warp launch timestamps and may run later this same cycle.
	c.curCycle = cycle
	if c.NextWake(cycle) > cycle {
		return true
	}
	c.cycles.Inc()

	// 1. Writeback events.
	kept := c.events[:0]
	for _, e := range c.events {
		if e.at <= cycle {
			c.completeEvent(e, cycle)
		} else {
			kept = append(kept, e)
		}
	}
	c.events = kept

	// 2. Caches retire fills (may call onCacheReady).
	c.L1D.Tick(cycle)
	c.L1T.Tick(cycle)
	c.L1Z.Tick(cycle)
	c.L1C.Tick(cycle)

	// 3. Drain cache miss traffic into the core output port. A request
	// is only popped once the output port accepted it: popping first
	// and dropping the request on a full port would leave its MSHR
	// waiting forever.
	for _, ca := range []*cache.Cache{c.L1D, c.L1T, c.L1Z, c.L1C} {
		for {
			r := ca.Out.Peek()
			if r == nil {
				break
			}
			if !c.Out.Push(r) {
				break // output port full: retry next cycle
			}
			ca.Out.Pop()
		}
	}

	// 4. LSU: issue pending transactions.
	c.issueTransactions(cycle)

	// 5. Warp schedulers.
	for s := 0; s < c.Cfg.Schedulers; s++ {
		c.issueOne(cycle)
	}

	// 6. Reap finished warps.
	c.reap()
	return false
}

func (c *Core) completeEvent(e wbEvent, cycle uint64) {
	if e.op != nil {
		e.op.remaining--
		if e.op.remaining == 0 {
			e.op.warp.unlock(e.op.regs)
			e.op.warp.outstanding--
		}
		return
	}
	e.warp.unlock(e.regs)
}

// onCacheReady is invoked by a cache when a missed line returns.
func (c *Core) onCacheReady(waiter any, cycle uint64) {
	op, ok := waiter.(*memOp)
	if !ok || op == nil {
		return
	}
	op.remaining--
	if op.remaining == 0 {
		op.warp.unlock(op.regs)
		op.warp.outstanding--
	}
}

// issueTransactions pushes queued coalesced accesses into caches.
func (c *Core) issueTransactions(cycle uint64) {
	n := 0
	for len(c.txQueue) > 0 && n < c.Cfg.LSUWidth {
		tx := c.txQueue[0]
		if tx.cache == nil {
			// Raw store (vertex output): straight to the output port.
			// The transaction stays queued if the port is full.
			ok := c.Out.Push(&mem.Request{
				Addr: tx.addr, Size: 16, Kind: mem.Write,
				Client: mem.ClientGPU, ClientID: c.Cfg.ClusterID, IssuedAt: cycle,
			})
			if !ok {
				c.memStalls.Inc()
				return // in-order LSU: retry next cycle
			}
			c.finishTx(tx, cycle, 1)
			c.txQueue = c.txQueue[1:]
			n++
			continue
		}
		res := tx.cache.Access(cycle, tx.addr, tx.kind, tx.op)
		switch res {
		case cache.Hit:
			c.finishTx(tx, cycle, tx.cache.Config().HitLatency)
			c.txQueue = c.txQueue[1:]
			n++
		case cache.Miss:
			// Waiter registered with the MSHR; fill will decrement.
			c.txQueue = c.txQueue[1:]
			n++
		case cache.Blocked:
			c.memStalls.Inc()
			return // in-order LSU: retry next cycle
		}
	}
}

// finishTx schedules the transaction's completion after lat cycles.
func (c *Core) finishTx(tx *transaction, cycle, lat uint64) {
	if tx.op == nil {
		return
	}
	c.events = append(c.events, wbEvent{at: cycle + lat, op: tx.op, warp: tx.op.warp})
}

// warpReady reports whether w can issue at this cycle.
func (c *Core) warpReady(w *Warp, cycle uint64) bool {
	if w.done || w.atBarrier || w.readyAt > cycle {
		return false
	}
	if len(w.stack) == 0 {
		return false
	}
	pc := w.PC()
	if pc >= uint32(len(w.Prog.Code)) {
		return false
	}
	in := w.Prog.Code[pc]
	if w.hazard(in) {
		return false
	}
	// LSU backpressure: don't issue memory work into a saturated queue.
	if in.IsMemory() && len(c.txQueue) >= txQueueDepth {
		return false
	}
	// Memory fences: a memory instruction waits for prior ones from this
	// warp to at least issue (outstanding loads are covered by the
	// scoreboard; ROP ordering relies on program order).
	if in.IsMemory() && w.outstanding > 0 && shader.ClassOf(in.Op) == shader.ClassROP {
		return false
	}
	return true
}

// schedReady is warpReady fused with park classification: one pass
// decides both whether w can issue and, if not, how long the scheduler
// may skip it. A park of mem.NeverWake means "until an external hook
// clears w.parked": every condition that earns it can only lift
// through unlock (scoreboard release, which all outstanding-memory
// decrements ride along with) or barrier release, and both of those
// clear the park. readyAt stalls are purely timed and expire on their
// own. Conditions with no such hook (LSU backpressure, an empty
// reconvergence stack) leave the warp unparked — it is rescanned next
// cycle, same as before parking existed. A parked warp's own pc,
// stack, done, and readyAt cannot change, because only its own
// execution mutates them and a parked warp never executes. warpReady
// stays as the side-effect-free reference (guard, tests).
func (c *Core) schedReady(w *Warp, cycle uint64) bool {
	if w.done || w.atBarrier {
		w.parked = mem.NeverWake
		return false
	}
	if w.readyAt > cycle {
		w.parked = w.readyAt
		return false
	}
	if len(w.stack) == 0 {
		return false
	}
	pc := w.PC()
	if pc >= uint32(len(w.Prog.Code)) {
		return false
	}
	in := w.Prog.Code[pc]
	if w.hazard(in) {
		w.parked = mem.NeverWake
		return false
	}
	if in.IsMemory() {
		if len(c.txQueue) >= txQueueDepth {
			return false
		}
		if w.outstanding > 0 && shader.ClassOf(in.Op) == shader.ClassROP {
			w.parked = mem.NeverWake
			return false
		}
	}
	return true
}

// issueOne lets one scheduler pick and execute a warp instruction.
func (c *Core) issueOne(cycle uint64) {
	n := len(c.warps)
	if n == 0 {
		c.issueIdle.Inc()
		return
	}
	// Greedy-then-oldest: try the last-issued warp first, then oldest
	// launch order; LRR just rotates. Candidates are visited in place:
	// this is the hottest loop in the simulator, and materializing the
	// candidate order allocates once per scheduler slot.
	try := func(w *Warp) bool {
		if w.parked > cycle {
			return false // still parked: warpReady cannot be true
		}
		if !c.schedReady(w, cycle) {
			return false
		}
		c.execute(w, cycle)
		w.lastIssued = cycle
		return true
	}
	if c.Cfg.GTO {
		var greedy *Warp
		for _, w := range c.warps {
			if w.lastIssued == cycle-1 && cycle > 0 {
				greedy = w
				break
			}
		}
		if greedy != nil && try(greedy) {
			return
		}
		for _, w := range c.warps {
			if w != greedy && try(w) {
				return
			}
		}
	} else {
		start := c.lastScheduled % n
		c.lastScheduled++
		for i := 0; i < n; i++ {
			if try(c.warps[(start+i)%n]) {
				return
			}
		}
	}
	c.issueIdle.Inc()
	c.traceStall(cycle)
}

// traceStall emits one instant naming the dominant reason no warp could
// issue this scheduler slot: scoreboard dependency, outstanding memory,
// barrier/reconvergence wait, or SFU throughput. Only runs while the
// tracer is active — the disabled path costs a single branch.
func (c *Core) traceStall(cycle uint64) {
	if !c.trace.Active(cycle) {
		return
	}
	var scoreboard, memory, reconv, sfu int
	for _, w := range c.warps {
		switch {
		case w.done || len(w.stack) == 0:
		case w.atBarrier:
			reconv++
		case w.readyAt > cycle:
			sfu++
		default:
			pc := w.PC()
			if pc >= uint32(len(w.Prog.Code)) {
				continue
			}
			in := w.Prog.Code[pc]
			switch {
			case w.hazard(in) && w.outstanding > 0:
				memory++
			case w.hazard(in):
				scoreboard++
			case in.IsMemory() && len(c.txQueue) >= txQueueDepth:
				memory++
			}
		}
	}
	name, count := "", 0
	if scoreboard > count {
		name, count = "stall_scoreboard", scoreboard
	}
	if memory > count {
		name, count = "stall_mem", memory
	}
	if reconv > count {
		name, count = "stall_reconv", reconv
	}
	if sfu > count {
		name, count = "stall_sfu", sfu
	}
	if name != "" {
		c.trace.Instant1(emtrace.SrcSIMT, c.traceTrack, name, cycle,
			emtrace.Arg{Key: "warps", Val: int64(count)})
	}
}

// reap removes retired warps and fires their env callbacks.
func (c *Core) reap() {
	kept := c.warps[:0]
	for _, w := range c.warps {
		if w.done && w.outstanding == 0 {
			c.warpsRetired.Inc()
			c.trace.Span1(emtrace.SrcSIMT, c.traceTrack, w.Prog.Name,
				w.launchCycle, c.curCycle, emtrace.Arg{Key: "warp", Val: int64(w.ID)})
			if w.BlockID >= 0 {
				if b := c.blocks[w.BlockID]; b != nil {
					b.live--
					if b.live == 0 {
						delete(c.blocks, w.BlockID)
					} else if b.atBarrier >= b.live && b.atBarrier > 0 {
						// A warp exited while siblings wait: the barrier
						// is now satisfied by the survivors.
						for _, bw := range b.warps {
							bw.atBarrier = false
							bw.parked = 0
						}
						b.atBarrier = 0
					}
				}
			}
			if w.Env != nil {
				w.Env.Retired(w)
			}
			continue
		}
		kept = append(kept, w)
	}
	c.warps = kept
}
