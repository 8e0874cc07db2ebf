package simt

import (
	"errors"
	"fmt"
	"math/bits"

	"emerald/internal/guard"
)

// maxStackDepth bounds legal SIMT stack growth. Structured divergence
// nests a handful of levels; hundreds means runaway push without
// reconvergence.
const maxStackDepth = 128

// checkInvariants verifies the warp's reconvergence-stack
// well-formedness: a live warp always has a stack, the top-of-stack
// mask is never empty (reconverge pops empty levels before control
// returns to the scheduler), every level's mask stays within the
// residual launch mask at the stack bottom (branches only partition
// the current mask and lane exits strip all levels equally), memory
// accounting never goes negative, and depth stays bounded.
func (w *Warp) checkInvariants() error {
	if w.outstanding < 0 {
		return fmt.Errorf("negative outstanding memory count %d", w.outstanding)
	}
	if w.done {
		return nil
	}
	if len(w.stack) == 0 {
		return errors.New("live warp with empty SIMT stack")
	}
	if len(w.stack) > maxStackDepth {
		return fmt.Errorf("SIMT stack depth %d exceeds %d (runaway divergence)", len(w.stack), maxStackDepth)
	}
	if top := w.stack[len(w.stack)-1]; top.mask == 0 {
		return errors.New("empty active mask at top of stack")
	}
	launch := w.stack[0].mask
	for i, e := range w.stack {
		if e.mask&^launch != 0 {
			return fmt.Errorf("stack[%d] mask %08x escapes bottom mask %08x", i, e.mask, launch)
		}
	}
	return nil
}

// AttachGuard registers the core's SIMT-stack invariants and the MSHR
// invariants of its four L1 caches, and turns on two audits. The LSU's
// room audit: a refused head is re-offered every cycle instead of
// charged, and a cache that takes it with its room counter unmoved is
// reported. The wait audit: a cycle the memoised wait covers runs the
// full tick, and one that moves more than the wait charges is reported.
// Safe with a nil checker.
func (c *Core) AttachGuard(g *guard.Checker) {
	track := fmt.Sprintf("core%d_%d", c.Cfg.ClusterID, c.Cfg.ID)
	c.audit = g.Enabled()
	c.waitUntil = 0
	g.Register("simt", track+".warps", c.checkWarps)
	g.Register("simt", track+".pools", c.checkPools)
	g.Register("simt", track+".lsu", func(uint64) error {
		if c.lostRoom != "" {
			return errors.New(c.lostRoom)
		}
		return nil
	})
	g.Register("simt", track+".wait", func(uint64) error {
		if c.lostWait != "" {
			return errors.New(c.lostWait)
		}
		return nil
	})
	c.L1D.AttachGuard(g, track+".l1d")
	c.L1T.AttachGuard(g, track+".l1t")
	c.L1Z.AttachGuard(g, track+".l1z")
	c.L1C.AttachGuard(g, track+".l1c")
}

func (c *Core) checkWarps(cycle uint64) error {
	for _, s32 := range c.order {
		s := int(s32)
		w := c.slots[s]
		if err := w.checkInvariants(); err != nil {
			return fmt.Errorf("warp %d (%s): %w", w.ID, w.Prog.Name, err)
		}
		// Wake-contract audit: a warp outside the awake set must
		// genuinely be unschedulable. A violation means a release path
		// forgot its wake hook and the scheduler is skipping issuable
		// work. (A timed sleeper that is due wakes at the next Tick.)
		if !c.awake.has(s) && !(c.timed.has(s) && c.wakeAt[s] <= cycle) && c.warpReady(w, cycle) {
			return fmt.Errorf("warp %d (%s): asleep (timed=%v until %d, lsu=%v) but ready at %d (missing wake hook)",
				w.ID, w.Prog.Name, c.timed.has(s), c.wakeAt[s], c.lsuWait.has(s), cycle)
		}
	}
	return c.checkReadySet()
}

// checkReadySet audits that the ready set, the slot table and the
// resident list agree: every bit belongs to a resident warp, no warp
// sleeps in two ways or is both awake and asleep, a warp waits for LSU
// room only while there is none, and the retiring marks are exactly the
// warps with nothing left to do (none, between ticks).
func (c *Core) checkReadySet() error {
	resident := make(bitset, len(c.awake))
	for i, s32 := range c.order {
		s := int(s32)
		w := c.slots[s]
		if w == nil || w.slot != s || resident.has(s) {
			return fmt.Errorf("resident list entry %d names slot %d, which is empty, mislabelled or listed twice", i, s)
		}
		if i > 0 && w.LaunchedAt <= c.slots[c.order[i-1]].LaunchedAt {
			return fmt.Errorf("resident list not in launch order at entry %d (slot %d)", i, s)
		}
		resident.set(s)
		if retirable := w.done && w.outstanding == 0; retirable != c.retiring.has(s) {
			return fmt.Errorf("warp %d: retirable=%v but retiring mark=%v", w.ID, retirable, c.retiring.has(s))
		}
	}
	for i := range resident {
		for j, b := range c.readySets() {
			if stray := b[i] &^ resident[i]; stray != 0 {
				return fmt.Errorf("%s set has bits %#x in word %d with no resident warp",
					[...]string{"awake", "timed", "lsuWait", "retiring", "issued", "greedy"}[j], stray, i)
			}
		}
		if both := c.awake[i]&(c.timed[i]|c.lsuWait[i]) | c.timed[i]&c.lsuWait[i]; both != 0 {
			return fmt.Errorf("slots %#x of word %d are in two of awake/timed/lsuWait", both, i)
		}
	}
	if c.lsuWait.any() && c.txLen < txQueueDepth {
		return fmt.Errorf("warps asleep on LSU room with %d of %d transactions queued (missing wake hook)", c.txLen, txQueueDepth)
	}
	return nil
}

// checkPools audits the recycling invariants. Nothing live may reach a
// warp on the free list: not the resident set, not a writeback event of
// the current generation, not a memOp still owed completions (those
// are reachable from the LSU ring and from hit events). Freed objects
// hold no pointers, and the register-file counter matches a recount.
func (c *Core) checkPools(cycle uint64) error {
	free := make(map[*Warp]bool, len(c.freeWarps))
	for _, w := range c.freeWarps {
		if w.Prog != nil || w.Env != nil {
			return fmt.Errorf("free warp (last id %d) still holds its program or env", w.ID)
		}
		free[w] = true
	}
	freeOp := make(map[*memOp]bool, len(c.freeOps))
	for _, op := range c.freeOps {
		if op.warp != nil {
			return fmt.Errorf("free memOp still points at warp %d", op.warp.ID)
		}
		freeOp[op] = true
	}
	liveOp := func(where string, op *memOp) error {
		switch {
		case op == nil:
			return nil
		case freeOp[op]:
			return fmt.Errorf("%s holds a memOp that is on the free list", where)
		case op.warp == nil || free[op.warp]:
			return fmt.Errorf("%s holds a memOp whose warp was recycled", where)
		}
		return nil
	}
	regs := 0
	for _, s := range c.order {
		w := c.slots[s]
		if free[w] {
			return fmt.Errorf("resident warp %d is on the free list", w.ID)
		}
		regs += w.Prog.RegsUsed * WarpSize
	}
	if regs != c.regsUsed {
		return fmt.Errorf("register-file counter %d, recount over resident warps %d", c.regsUsed, regs)
	}
	events := 0
	for i := range c.events {
		q := &c.events[i].q
		events += q.Len()
		for j := 0; j < q.Len(); j++ {
			e := q.At(j)
			if j > 0 && e.at < q.At(j-1).at {
				return fmt.Errorf("writeback class %d: event due at %d queued behind one due at %d", c.events[i].lat, e.at, q.At(j-1).at)
			}
			if e.op == nil && e.gen == e.warp.gen && free[e.warp] {
				return fmt.Errorf("writeback due at %d targets free warp (last id %d) under its current generation", e.at, e.warp.ID)
			}
			if err := liveOp("a writeback event", e.op); err != nil {
				return err
			}
		}
	}
	if events != c.nEvents {
		return fmt.Errorf("event counter %d, %d events queued", c.nEvents, events)
	}
	if err := c.Out.AuditReleased(); err != nil {
		return fmt.Errorf("output port: %w", err)
	}
	for i := 0; i < c.txLen; i++ {
		if err := liveOp("the LSU ring", c.txq[(c.txHead+i)%len(c.txq)].op); err != nil {
			return err
		}
	}
	return nil
}

// Instructions returns the number of instructions issued so far — one
// term of the run loops' forward-progress signature.
func (c *Core) Instructions() int64 { return c.instrs.Value() }

// Diagnose renders the core's stuck state for a watchdog bundle: LSU
// and L1 occupancy plus one line per resident warp (capped at maxWarps
// lines). Returns nil when the core holds no work.
func (c *Core) Diagnose(cycle uint64, maxWarps int) []string {
	if c.Idle() {
		return nil
	}
	lines := make([]string, 0, len(c.order)+2)
	lines = append(lines, fmt.Sprintf("txQueue=%d events=%d mshrs: l1d=%d l1t=%d l1z=%d l1c=%d",
		c.txLen, c.nEvents,
		c.L1D.PendingMisses(), c.L1T.PendingMisses(), c.L1Z.PendingMisses(), c.L1C.PendingMisses()))
	for i, s := range c.order {
		if maxWarps > 0 && i >= maxWarps {
			lines = append(lines, fmt.Sprintf("... %d more warps", len(c.order)-maxWarps))
			break
		}
		lines = append(lines, c.warpDiag(c.slots[s], cycle))
	}
	return lines
}

// warpDiag names the reason one warp cannot issue right now, in the
// same priority order the scheduler observes stalls.
func (c *Core) warpDiag(w *Warp, cycle uint64) string {
	state := "ready"
	switch {
	case w.done:
		state = "draining"
	case w.atBarrier:
		state = "barrier"
	case len(w.stack) == 0:
		state = "no-stack"
	case w.readyAt > cycle:
		state = fmt.Sprintf("pipeline(until=%d)", w.readyAt)
	default:
		if d := w.decoded(); d != nil {
			switch {
			case w.hazard(d) && w.outstanding > 0:
				state = "mem-wait"
			case w.hazard(d):
				state = "scoreboard"
			case d.Mem && c.txLen >= txQueueDepth:
				state = "lsu-full"
			}
		}
	}
	return fmt.Sprintf("warp%d %s: pc=%d mask=%08x depth=%d outstanding=%d pendingRegs=%d %s",
		w.ID, w.Prog.Name, w.PC(), w.ActiveMask(), len(w.stack), w.outstanding, bits.OnesCount64(w.pending), state)
}
