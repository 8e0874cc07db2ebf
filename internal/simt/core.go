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
	op    *memOp       // nil for fire-and-forget stores
}

// memOp tracks one warp load instruction until its data returns. memOps
// are recycled through Core.freeOps: exactly one completion (a hit's
// wbEvent or a fill's onCacheReady) arrives per transaction, so when
// remaining reaches zero nothing else refers to the op.
type memOp struct {
	warp      *Warp
	regs      uint64 // destination registers to unlock
	remaining int
}

// wbEvent releases scoreboard entries at a future cycle (ALU/SFU
// latency, cache hit latency).
type wbEvent struct {
	at   uint64
	warp *Warp
	gen  uint32 // warp.gen when queued; a mismatch means the warp retired
	regs uint64
	op   *memOp // when set, decrement op instead of direct unlock
}

// eventClass is the FIFO of pending writebacks that share one latency.
// Ticks arrive in cycle order, so within a class `at` never decreases
// from front to back: the due events are a prefix and the earliest is
// the front, with nothing rewritten or scanned. The handful of classes
// (ALU, SFU, scratchpad, one per distinct L1 hit latency) are found by
// their latency.
type eventClass struct {
	lat uint64
	q   mem.Ring[wbEvent]
}

// Core is one SIMT core.
type Core struct {
	Cfg CoreConfig

	warps []*Warp
	// freeWarps holds retired Warp structs (10 KB each) for Launch to
	// reuse. A retired warp keeps no Prog or Env pointer.
	freeWarps []*Warp
	// regsUsed is the register-file space held by resident warps.
	regsUsed int
	// blocks tracks compute thread blocks for barrier handling; a block
	// whose last warp retired goes to freeBlocks, empty, for the next.
	blocks     map[int]*blockState
	freeBlocks []*blockState

	L1D, L1T, L1Z, L1C *cache.Cache

	// Out carries this core's miss/writeback traffic toward the cluster
	// and L2. The owner (cluster model) drains it.
	Out *mem.Queue

	// txq is the LSU's ring of coalesced transactions awaiting cache
	// issue: txLen entries starting at txHead. A memory instruction
	// issues only below txQueueDepth and adds at most 4*WarpSize.
	txq           [txQueueDepth + 4*WarpSize]transaction
	txHead, txLen int
	freeOps       []*memOp
	// addrs and lines are executeMem's scratch: the per-lane addresses
	// of one memory instruction and the cache lines they coalesce to.
	addrs, lines [4 * WarpSize]uint64

	events  []eventClass
	nEvents int
	// reqs supplies the vertex-output stores, the only requests the core
	// issues itself (its caches own theirs).
	reqs mem.Pool

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
	warps     []*Warp // resident warps of the block
	atBarrier int
	live      int
}

// drop forgets a retired warp: its struct is about to be recycled, and
// a barrier release must not reach whichever warp holds it next.
func (b *blockState) drop(w *Warp) {
	for i, bw := range b.warps {
		if bw == w {
			last := len(b.warps) - 1
			b.warps[i] = b.warps[last]
			b.warps[last] = nil
			b.warps = b.warps[:last]
			return
		}
	}
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

// CanLaunch reports whether a warp of prog can be accepted now.
func (c *Core) CanLaunch(prog *shader.Program) bool {
	return len(c.warps) < c.Cfg.MaxWarps && c.Cfg.RegFile-c.regsUsed >= prog.RegsUsed*WarpSize
}

// Launch places a new warp on the core. mask selects live lanes;
// specials seeds per-lane special registers; init may preload registers.
// blockID < 0 means no thread block (graphics warps). The returned warp
// belongs to the core: once it retires its registers stay readable only
// until the core's next Launch, which may reuse the struct.
func (c *Core) Launch(prog *shader.Program, env WarpEnv, blockID int, mask uint32,
	specials [WarpSize]shader.Special, init func(lane int, t *shader.Thread)) (*Warp, error) {
	if !c.CanLaunch(prog) {
		return nil, fmt.Errorf("simt: core %d full (%d warps)", c.Cfg.ID, len(c.warps))
	}
	if mask == 0 {
		return nil, fmt.Errorf("simt: empty launch mask")
	}
	w := pop(&c.freeWarps)
	w.reset(int(c.warpSeq), prog, env, blockID, mask)
	c.regsUsed += prog.RegsUsed * WarpSize
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
			b = pop(&c.freeBlocks)
			c.blocks[blockID] = b
		}
		b.warps = append(b.warps, w)
		b.live++
	}
	return w, nil
}

// Idle reports whether the core has no warps and no outstanding memory.
func (c *Core) Idle() bool {
	return len(c.warps) == 0 && c.txLen == 0 && c.nEvents == 0
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
	if c.txLen > 0 || c.Out.Len() > 0 {
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

// schedule queues e to fire lat cycles after cycle.
func (c *Core) schedule(cycle, lat uint64, e wbEvent) {
	i := 0
	for i < len(c.events) && c.events[i].lat != lat {
		i++
	}
	if i == len(c.events) {
		c.events = append(c.events, eventClass{lat: lat})
	}
	e.at = cycle + lat
	c.events[i].q.PushBack(e)
	c.nEvents++
}

// Tick advances the core one cycle.
func (c *Core) Tick(cycle uint64) {
	// curCycle must be stamped before the idle gate: Launch reads it
	// for warp launch timestamps and may run later this same cycle.
	c.curCycle = cycle
	if c.NextWake(cycle) > cycle {
		return
	}
	c.cycles.Inc()

	// 1. Writeback events. Completion order within a cycle is not
	// simulation-visible: unlocking is commutative.
	for i := range c.events {
		for q := &c.events[i].q; q.Len() > 0 && q.Front().at <= cycle; c.nEvents-- {
			c.completeEvent(q.Pop())
		}
	}

	// 2. Caches retire fills (may call onCacheReady).
	c.L1D.Tick(cycle)
	c.L1T.Tick(cycle)
	c.L1Z.Tick(cycle)
	c.L1C.Tick(cycle)

	// 3. Drain cache miss traffic into the core output port; what the
	// port refuses waits in the cache's queue.
	c.L1D.Out.DrainTo(c.Out)
	c.L1T.Out.DrainTo(c.Out)
	c.L1Z.Out.DrainTo(c.Out)
	c.L1C.Out.DrainTo(c.Out)

	// 4. LSU: issue pending transactions.
	c.issueTransactions(cycle)

	// 5. Warp schedulers.
	for s := 0; s < c.Cfg.Schedulers; s++ {
		c.issueOne(cycle)
	}

	// 6. Reap finished warps.
	c.reap()
}

func (c *Core) completeEvent(e wbEvent) {
	switch {
	case e.op != nil:
		c.opDone(e.op)
	case e.warp.gen == e.gen:
		e.warp.unlock(e.regs)
	}
	// Otherwise the warp retired with this writeback still queued (it
	// exited right behind an ALU op). The struct may already hold a new
	// warp, whose scoreboard this event must not touch.
}

// onCacheReady is invoked by a cache when a missed line returns.
func (c *Core) onCacheReady(waiter any, cycle uint64) {
	if op, ok := waiter.(*memOp); ok && op != nil {
		c.opDone(op)
	}
}

// opDone retires one transaction of op. The last one releases the
// destination registers and returns op to the free list without its
// warp pointer, so a pooled op never pins a retired warp.
func (c *Core) opDone(op *memOp) {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	op.warp.unlock(op.regs)
	op.warp.outstanding--
	op.warp = nil
	c.freeOps = append(c.freeOps, op)
}

// newOp takes a memOp for n transactions of w off the free list.
func (c *Core) newOp(w *Warp, regs uint64, n int) *memOp {
	op := pop(&c.freeOps)
	*op = memOp{warp: w, regs: regs, remaining: n}
	return op
}

// pop takes an object off a free list, or allocates one when the list
// is empty.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// pushTx appends a transaction to the LSU ring.
func (c *Core) pushTx(tx transaction) {
	if c.txLen == len(c.txq) {
		panic("simt: LSU transaction ring overflow")
	}
	c.txq[(c.txHead+c.txLen)%len(c.txq)] = tx
	c.txLen++
}

// popTx drops the oldest transaction, clearing its slot's pointers.
func (c *Core) popTx() {
	c.txq[c.txHead] = transaction{}
	c.txHead = (c.txHead + 1) % len(c.txq)
	c.txLen--
}

// issueTransactions pushes queued coalesced accesses into caches.
func (c *Core) issueTransactions(cycle uint64) {
	for n := 0; c.txLen > 0 && n < c.Cfg.LSUWidth; n++ {
		tx := &c.txq[c.txHead]
		lat := uint64(1)
		if tx.cache == nil {
			// Raw store (vertex output): straight to the output port.
			// The transaction stays queued if the port is full.
			if c.Out.Full() {
				c.memStalls.Inc()
				return // in-order LSU: retry next cycle
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
				// Waiter registered with the MSHR; fill will decrement.
				c.popTx()
				continue
			case cache.Blocked:
				c.memStalls.Inc()
				return // in-order LSU: retry next cycle
			}
		}
		// Completes after lat cycles.
		if tx.op != nil {
			c.schedule(cycle, lat, wbEvent{op: tx.op})
		}
		c.popTx()
	}
}

// warpReady reports whether w can issue at this cycle.
func (c *Core) warpReady(w *Warp, cycle uint64) bool {
	if w.done || w.atBarrier || w.readyAt > cycle {
		return false
	}
	d := w.decoded()
	if d == nil || w.hazard(d) {
		return false
	}
	// LSU backpressure: don't issue memory work into a saturated queue.
	if d.Mem && c.txLen >= txQueueDepth {
		return false
	}
	// Memory fences: a memory instruction waits for prior ones from this
	// warp to at least issue (outstanding loads are covered by the
	// scoreboard; ROP ordering relies on program order).
	if d.Class == shader.ClassROP && w.outstanding > 0 {
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
	d := w.decoded()
	if d == nil {
		return false
	}
	if w.hazard(d) {
		w.parked = mem.NeverWake
		return false
	}
	if d.Mem {
		if c.txLen >= txQueueDepth {
			return false
		}
		if w.outstanding > 0 && d.Class == shader.ClassROP {
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
			d := w.decoded()
			switch {
			case d == nil:
			case w.hazard(d) && w.outstanding > 0:
				memory++
			case w.hazard(d):
				scoreboard++
			case d.Mem && c.txLen >= txQueueDepth:
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
	// Most cycles retire nothing: find the first retirable warp before
	// rewriting the resident list.
	n := 0
	for n < len(c.warps) && !(c.warps[n].done && c.warps[n].outstanding == 0) {
		n++
	}
	if n == len(c.warps) {
		return
	}
	kept := c.warps[:n]
	for _, w := range c.warps[n:] {
		if w.done && w.outstanding == 0 {
			c.warpsRetired.Inc()
			c.trace.Span1(emtrace.SrcSIMT, c.traceTrack, w.Prog.Name,
				w.launchCycle, c.curCycle, emtrace.Arg{Key: "warp", Val: int64(w.ID)})
			if w.BlockID >= 0 {
				if b := c.blocks[w.BlockID]; b != nil {
					b.live--
					b.drop(w)
					if b.live == 0 {
						delete(c.blocks, w.BlockID)
						b.atBarrier = 0
						c.freeBlocks = append(c.freeBlocks, b)
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
			c.regsUsed -= w.Prog.RegsUsed * WarpSize
			// Bumping gen here, not at reuse, disowns the warp's queued
			// writebacks while it sits on the free list too.
			w.gen++
			w.Prog, w.Env = nil, nil
			c.freeWarps = append(c.freeWarps, w)
			continue
		}
		kept = append(kept, w)
	}
	clear(c.warps[len(kept):])
	c.warps = kept
}
