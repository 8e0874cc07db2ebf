package simt

import (
	"fmt"
	"math/bits"

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

	// slots holds every Warp struct the core has built, by Warp.slot,
	// resident or not; order lists the resident ones, oldest launch
	// first. Both are sized from Cfg.MaxWarps in NewCore.
	slots []*Warp
	order []int32
	// freeWarps holds retired Warp structs (10 KB each) for Launch to
	// reuse. A retired warp keeps no Prog or Env pointer.
	freeWarps []*Warp

	// The ready set, one bit per slot (DESIGN.md "SIMT hot path"). A
	// resident warp is in exactly one of four states: awake (the
	// schedulers look at it), timed (asleep until wakeAt[slot]), lsuWait
	// (asleep until the LSU ring has room) or, in none of the three,
	// asleep until a scoreboard or barrier release. awake is written
	// only by wake, sleep, sleepOnLSU, wakeLSU and forget (check.sh
	// lints it); a warp leaves it when a scheduler finds it blocked or
	// when it retires, never otherwise.
	awake, timed, lsuWait bitset
	wakeAt                []uint64
	// retiring marks warps that became done with nothing outstanding;
	// reap runs only while it is non-empty.
	retiring bitset
	// issued marks the warps whose last instruction issued at cycle
	// issuedAt, greedy those that last issued the cycle before: the
	// greedy-then-oldest candidates.
	issued, greedy bitset
	issuedAt       uint64
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

	lastScheduled int // LRR rotation
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

// bitset is one bit per warp slot.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
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
	n := max(cfg.MaxWarps, 0)
	words := (n + 63) / 64
	sets := make(bitset, 6*words)
	for i, b := range []*bitset{&core.awake, &core.timed, &core.lsuWait, &core.retiring, &core.issued, &core.greedy} {
		*b = sets[i*words : (i+1)*words : (i+1)*words]
	}
	core.slots, core.order, core.wakeAt = make([]*Warp, n), make([]int32, 0, n), make([]uint64, n)
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
func (c *Core) ActiveWarps() int { return len(c.order) }

// CanLaunch reports whether a warp of prog can be accepted now.
func (c *Core) CanLaunch(prog *shader.Program) bool {
	return len(c.order) < c.Cfg.MaxWarps && c.Cfg.RegFile-c.regsUsed >= prog.RegsUsed*WarpSize
}

// Launch places a new warp on the core. mask selects live lanes;
// specials seeds per-lane special registers; init may preload registers.
// blockID < 0 means no thread block (graphics warps). The returned warp
// belongs to the core: once it retires its registers stay readable only
// until the core's next Launch, which may reuse the struct.
func (c *Core) Launch(prog *shader.Program, env WarpEnv, blockID int, mask uint32,
	specials [WarpSize]shader.Special, init func(lane int, t *shader.Thread)) (*Warp, error) {
	if !c.CanLaunch(prog) {
		return nil, fmt.Errorf("simt: core %d full (%d warps)", c.Cfg.ID, len(c.order))
	}
	if mask == 0 {
		return nil, fmt.Errorf("simt: empty launch mask")
	}
	w := pop(&c.freeWarps)
	if c.slots[w.slot] != w {
		// A new struct: every older one is resident, so the next slot
		// never used is the resident count.
		w.slot = len(c.order)
		c.slots[w.slot] = w
	}
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
	c.order = append(c.order, int32(w.slot))
	c.wake(w.slot)
	if c.curCycle == 0 {
		// A warp that has never issued counts as having issued at cycle
		// 0 (the digests pin this): resident before cycle 1, it is a
		// greedy candidate there.
		c.issued.set(w.slot)
	}
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
	return len(c.order) == 0 && c.txLen == 0 && c.nEvents == 0
}

// wake puts slot s in the awake set, whatever it slept on. The three
// wake conditions each call it from one place: scoreboard release
// (unlock), barrier release (releaseBarrier) and LSU room (wakeLSU,
// in bulk); a timed sleeper comes due in wakeTimed.
func (c *Core) wake(s int) {
	c.timed.clear(s)
	c.lsuWait.clear(s)
	c.awake.set(s)
}

// sleep takes slot s out of the awake set until cycle `until`, or, with
// mem.NeverWake, until unlock or releaseBarrier wakes it.
func (c *Core) sleep(s int, until uint64) {
	c.awake.clear(s)
	if until != mem.NeverWake {
		c.timed.set(s)
		c.wakeAt[s] = until
	}
}

// sleepOnLSU takes slot s out of the awake set until the LSU ring drops
// below txQueueDepth.
func (c *Core) sleepOnLSU(s int) {
	c.awake.clear(s)
	c.lsuWait.set(s)
}

// readySets lists the per-slot sets, for what treats them alike.
func (c *Core) readySets() [6]bitset {
	return [6]bitset{c.awake, c.timed, c.lsuWait, c.retiring, c.issued, c.greedy}
}

// forget takes slot s, whose warp retired, out of every set.
func (c *Core) forget(s int) {
	for _, b := range c.readySets() {
		b.clear(s)
	}
}

// wakeLSU wakes every warp sleeping on LSU room.
func (c *Core) wakeLSU() {
	for i, word := range c.lsuWait {
		c.awake[i] |= word
		c.lsuWait[i] = 0
	}
}

// wakeTimed wakes the timed sleepers due at cycle.
func (c *Core) wakeTimed(cycle uint64) {
	for i, word := range c.timed {
		for ; word != 0; word &= word - 1 {
			if s := i<<6 | bits.TrailingZeros64(word); c.wakeAt[s] <= cycle {
				c.wake(s)
			}
		}
	}
}

// unlock releases registers locked by lockDst. This is the single
// scoreboard-release chokepoint (ALU/SFU writebacks and memory fills
// both land here, and every outstanding-memory decrement rides along
// with one), so it is the scoreboard's wake hook.
func (c *Core) unlock(w *Warp, regs uint64) {
	w.pending &^= regs
	c.wake(w.slot)
}

// releaseBarrier lets every resident warp of b go: the barrier's wake
// hook.
func (c *Core) releaseBarrier(b *blockState) {
	for _, w := range b.warps {
		w.atBarrier = false
		c.wake(w.slot)
	}
	b.atBarrier = 0
}

// NextWake returns the earliest future cycle at which the core's state
// can change on its own: now while any warp is awake or transactions
// are live, the earliest timed wake, writeback event or cache wake
// otherwise, mem.NeverWake when fully drained. It is answered from the
// ready set without looking at a warp. Warps asleep on an external
// dependency (scoreboard held by an in-flight fill, barrier) contribute
// nothing here — the fill's arrival flows through a cache wake plus the
// cluster's L2-completion Wake, and barrier release can only happen
// while some sibling executes, i.e. while the core is awake anyway.
// Warps asleep on LSU room need no term either: the ring is not empty.
// In-flight cache fills are covered downstream (NoC/DRAM).
//
// This is the core's one wake definition: Tick gates on it every cycle,
// in every mode, so results never depend on how time is advanced. A
// cycle where every resident warp is asleep is a wake in the future:
// the schedulers could not issue anything, so such cycles do not
// increment the cycles / issue_idle counters or emit stall instants.
func (c *Core) NextWake(cycle uint64) uint64 {
	if c.txLen > 0 || c.Out.Len() > 0 || c.awake.any() {
		return cycle
	}
	w := uint64(mem.NeverWake)
	for i, word := range c.timed {
		for ; word != 0; word &= word - 1 {
			if at := c.wakeAt[i<<6|bits.TrailingZeros64(word)]; at < w {
				w = at
			}
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
	c.wakeTimed(cycle)
	if c.NextWake(cycle) > cycle {
		return
	}
	c.cycles.Inc()
	c.tickMemory(cycle)

	// 5. Warp schedulers.
	for s := 0; s < c.Cfg.Schedulers; s++ {
		c.issueOne(cycle)
	}

	// 6. Reap finished warps.
	c.reap()
}

// tickMemory is the memory half of a tick, everything that can wake a
// warp before the schedulers run: writebacks, cache fills, the L1s'
// miss traffic and the LSU.
func (c *Core) tickMemory(cycle uint64) {
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
}

func (c *Core) completeEvent(e wbEvent) {
	switch {
	case e.op != nil:
		c.opDone(e.op)
	case e.warp.gen == e.gen:
		c.unlock(e.warp, e.regs)
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
	w := op.warp
	c.unlock(w, op.regs)
	w.outstanding--
	if w.done && w.outstanding == 0 {
		c.retiring.set(w.slot)
	}
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

// popTx drops the oldest transaction, clearing its slot's pointers. The
// pop that makes room below txQueueDepth is the LSU's wake hook.
func (c *Core) popTx() {
	c.txq[c.txHead] = transaction{}
	c.txHead = (c.txHead + 1) % len(c.txq)
	c.txLen--
	if c.txLen == txQueueDepth-1 {
		c.wakeLSU()
	}
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

// schedReady is warpReady fused with sleep classification: one pass
// decides both whether slot s can issue and, if not, what wakes it.
// Every blocking condition has exactly one hook: a scoreboard hazard or
// a ROP fence lifts through unlock (every outstanding-memory decrement
// rides along with one), a barrier through releaseBarrier, a full LSU
// ring through popTx, and readyAt stalls are timed. A done warp sleeps
// until it retires. Only a hand-built program whose pc ran off its end
// stays awake (Assemble rejects those). A sleeping warp's own pc,
// stack, done and readyAt cannot change, because only its own execution
// mutates them and a sleeping warp never executes. warpReady stays as
// the side-effect-free reference (guard, tests).
func (c *Core) schedReady(s int, cycle uint64) bool {
	w := c.slots[s]
	if w.done || w.atBarrier {
		c.sleep(s, mem.NeverWake)
		return false
	}
	if w.readyAt > cycle {
		c.sleep(s, w.readyAt)
		return false
	}
	d := w.decoded()
	if d == nil {
		return false
	}
	if w.hazard(d) {
		c.sleep(s, mem.NeverWake)
		return false
	}
	if d.Mem {
		if c.txLen >= txQueueDepth {
			c.sleepOnLSU(s)
			return false
		}
		if w.outstanding > 0 && d.Class == shader.ClassROP {
			c.sleep(s, mem.NeverWake)
			return false
		}
	}
	return true
}

// pick chooses the slot one scheduler issues from, or -1: the first
// awake warp that is ready, visiting awake warps only. Greedy-then-
// oldest tries the oldest-launched warp that last issued the cycle
// before (after a dual issue that need not be the warp the other
// scheduler just ran), then launch order; LRR rotates its start. A warp
// found blocked goes to sleep on the way.
func (c *Core) pick(cycle uint64) int {
	if n := len(c.order); !c.Cfg.GTO && n > 0 {
		start := c.lastScheduled % n
		c.lastScheduled++
		for i := 0; i < n; i++ {
			if s := int(c.order[(start+i)%n]); c.awake.has(s) && c.schedReady(s, cycle) {
				return s
			}
		}
		return -1
	}
	if !c.awake.any() {
		return -1
	}
	g := -1
	for i, word := range c.greedy {
		for ; word != 0; word &= word - 1 {
			if s := i<<6 | bits.TrailingZeros64(word); g < 0 || c.slots[s].LaunchedAt < c.slots[g].LaunchedAt {
				g = s
			}
		}
	}
	if g >= 0 && c.awake.has(g) && c.schedReady(g, cycle) {
		return g
	}
	for _, s32 := range c.order {
		if s := int(s32); s != g && c.awake.has(s) && c.schedReady(s, cycle) {
			return s
		}
	}
	return -1
}

// issueOne lets one scheduler pick and execute a warp instruction. It
// returns the slot it issued from, -1 for an idle slot.
func (c *Core) issueOne(cycle uint64) int {
	if cycle != c.issuedAt {
		// First slot of a cycle: the warps that issued last, if that was
		// the cycle before, are this cycle's greedy candidates.
		for i := range c.greedy {
			c.greedy[i] = 0
			if cycle == c.issuedAt+1 {
				c.greedy[i] = c.issued[i]
			}
			c.issued[i] = 0
		}
		c.issuedAt = cycle
	}
	s := c.pick(cycle)
	if s < 0 {
		c.issueIdle.Inc()
		c.traceStall(cycle)
		return -1
	}
	c.issue(s, cycle)
	return s
}

// issue executes the next instruction of the warp in slot s and records
// the issue: the warp is no longer last cycle's, and its own last
// instruction is one of the two places a warp becomes retirable (opDone
// is the other).
func (c *Core) issue(s int, cycle uint64) {
	w := c.slots[s]
	c.execute(w, cycle)
	c.greedy.clear(s)
	c.issued.set(s)
	if w.done && w.outstanding == 0 {
		c.retiring.set(s)
	}
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
	for _, s := range c.order {
		w := c.slots[s]
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

// reap removes retired warps, in launch order, and fires their env
// callbacks. It runs only when a warp was marked retiring (by its own
// last instruction in issueOne, or by its last fill in opDone) and
// touches no other warp.
func (c *Core) reap() {
	if !c.retiring.any() {
		return
	}
	kept := c.order[:0]
	for _, s32 := range c.order {
		s := int(s32)
		if !c.retiring.has(s) {
			kept = append(kept, s32)
			continue
		}
		w := c.slots[s]
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
					c.releaseBarrier(b)
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
		c.forget(s)
	}
	c.order = kept
}
