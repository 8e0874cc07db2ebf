package simt

import (
	"math"
	"math/bits"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/shader"
)

// sharedLatency is the scratchpad access latency in cycles.
const sharedLatency = 24

// atomExtraLatency models the round trip to the L2 atomic unit beyond a
// regular global access.
const atomExtraLatency = 20

// txQueueDepth bounds the LSU's pending coalesced transactions.
const txQueueDepth = 192

// execute runs one instruction for warp w. The functional architectural
// effects happen immediately (the simulator is deterministic and
// single-threaded); timing effects are modeled through the scoreboard,
// writeback events and cache transactions.
func (c *Core) execute(w *Warp, cycle uint64) {
	pc := w.PC()
	in := &w.Prog.Code[pc]
	d := &w.Prog.Decode[pc]
	c.instrs.Inc()

	exec := predMask(in, w)

	switch in.Op {
	case shader.OpSSY:
		w.pendingRPC = in.Target
		w.advance()
		return
	case shader.OpBra:
		if w.branch(in.Target, exec) {
			c.divergences.Inc()
			c.trace.Instant1(emtrace.SrcSIMT, c.traceTrack, "diverge", cycle,
				emtrace.Arg{Key: "warp", Val: int64(w.ID)})
		}
		w.reconverge()
		return
	case shader.OpExit, shader.OpKill:
		if exec != 0 {
			c.threadsRetired.Add(int64(bits.OnesCount32(exec)))
			w.exitLanes(exec)
		} else {
			w.advance()
		}
		return
	case shader.OpBar:
		w.advance()
		c.barrier(w)
		return
	}

	switch d.Class {
	case shader.ClassALU, shader.ClassSFU:
		shader.ExecALULanes(in, exec, w.Threads[:], w.Special[:])
		lat := c.Cfg.ALULatency
		if d.Class == shader.ClassSFU {
			lat = c.Cfg.SFULatency
			w.readyAt = cycle + 1 + c.Cfg.SFUStall
		}
		c.writeback(w, w.lockDst(d), cycle, lat)
	default:
		c.executeMem(w, in, d, exec, cycle)
	}
	w.advance()
}

// predMask narrows w's active mask to the lanes whose guard predicate
// passes. Only predicated instructions need the per-lane test.
func predMask(in *shader.Instr, w *Warp) uint32 {
	mask := w.ActiveMask()
	if in.Pred < 0 {
		return mask
	}
	exec := uint32(0)
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if shader.Active(in, &w.Threads[lane]) {
			exec |= 1 << lane
		}
	}
	return exec
}

// writeback queues the release of regs lat cycles from now. An
// instruction without a destination queues nothing.
func (c *Core) writeback(w *Warp, regs uint64, cycle, lat uint64) {
	if regs != 0 {
		c.schedule(cycle, lat, wbEvent{warp: w, gen: w.gen, regs: regs})
	}
}

// coalesce reduces the first n scratch addresses to target's unique
// cache lines in c.lines, in first-seen order, and returns how many.
func (c *Core) coalesce(target *cache.Cache, n int) int {
	k := 0
next:
	for _, a := range c.addrs[:n] {
		la := target.LineAddr(a)
		for _, seen := range c.lines[:k] {
			if seen == la {
				continue next
			}
		}
		c.lines[k] = la
		k++
	}
	return k
}

// issueLoad enqueues read transactions for the first n scratch
// addresses; regs (already locked) release when the last one returns.
func (c *Core) issueLoad(w *Warp, target *cache.Cache, n int, regs uint64, cycle uint64) {
	if n == 0 {
		// No memory touched (e.g. all lanes predicated off): release
		// after a short delay.
		c.writeback(w, regs, cycle, c.Cfg.ALULatency)
		return
	}
	k := c.coalesce(target, n)
	op := c.newOp(w, regs, k)
	w.outstanding++
	for _, la := range c.lines[:k] {
		c.pushTx(transaction{addr: la, kind: mem.Read, cache: target, op: op})
	}
}

// issueStore enqueues fire-and-forget write transactions for the first
// n scratch addresses.
func (c *Core) issueStore(target *cache.Cache, n int) {
	k := c.coalesce(target, n)
	for _, la := range c.lines[:k] {
		c.pushTx(transaction{addr: la, kind: mem.Write, cache: target})
	}
}

// executeMem handles every memory-class instruction: the functional
// effect now (memEffects, shared with the functional executor), timing
// via the coalesced cache transactions of the addresses it touched.
func (c *Core) executeMem(w *Warp, in *shader.Instr, d *shader.Decoded, exec uint32, cycle uint64) {
	// The view lives for this one instruction: nothing is cached across
	// instructions, so a Reset or restore of the memory cannot stale it.
	view := mem.MakeView(w.Env.Memory())
	n := memEffects(w, in, exec, &view, &c.addrs)

	switch in.Op {
	case shader.OpLdGlobal, shader.OpFBLd:
		c.issueLoad(w, c.L1D, n, w.lockDst(d), cycle)
	case shader.OpAtomAdd:
		c.issueLoad(w, c.L1D, n, w.lockDst(d), cycle)
		w.readyAt = cycle + atomExtraLatency
	case shader.OpStGlobal, shader.OpFBSt:
		c.issueStore(c.L1D, n)
	case shader.OpLdShared:
		c.writeback(w, w.lockDst(d), cycle, sharedLatency)
	case shader.OpStShared:
		w.readyAt = cycle + 1
	case shader.OpLdConst, shader.OpAttr4:
		// Attributes with no address (fragment varyings: plane-equation
		// evaluation) touch nothing; issueLoad charges the ALU latency.
		c.issueLoad(w, c.L1C, n, w.lockDst(d), cycle)
	case shader.OpOut4:
		// Vertex outputs stream directly to the L2-backed output buffer,
		// bypassing L1 (cache == nil), one transaction per lane.
		for _, addr := range c.addrs[:n] {
			c.pushTx(transaction{addr: addr, kind: mem.Write})
		}
	case shader.OpTex4:
		c.issueLoad(w, c.L1T, n, w.lockDst(d), cycle)
	case shader.OpZLd:
		c.issueLoad(w, c.L1Z, n, w.lockDst(d), cycle)
	case shader.OpZSt:
		c.issueStore(c.L1Z, n)
	}
}

// memEffects applies the architectural effect of a memory-class
// instruction for the lanes in exec — registers, memory, scratchpad and
// the env's attribute, output and texture hooks, in lane order — and
// gathers the memory addresses the timing model charges into addrs,
// returning how many. Functional memory goes through the caller's view,
// so the lanes of one instruction that share a page pay for one
// directory walk.
func memEffects(w *Warp, in *shader.Instr, exec uint32, memory *mem.View, addrs *[4 * WarpSize]uint64) (n int) {
	switch in.Op {
	case shader.OpLdGlobal:
		for m := exec; m != 0; m &= m - 1 {
			t := &w.Threads[bits.TrailingZeros32(m)]
			ea := shader.EA(in, t)
			t.SetU(in.Dst, memory.ReadU32(ea))
			addrs[n] = ea
			n++
		}

	case shader.OpStGlobal:
		for m := exec; m != 0; m &= m - 1 {
			t := &w.Threads[bits.TrailingZeros32(m)]
			ea := shader.EA(in, t)
			memory.WriteU32(ea, t.U(in.A))
			addrs[n] = ea
			n++
		}

	case shader.OpAtomAdd:
		for m := exec; m != 0; m &= m - 1 {
			t := &w.Threads[bits.TrailingZeros32(m)]
			ea := shader.EA(in, t)
			old := memory.ReadF32(ea)
			memory.WriteF32(ea, old+t.F(in.A))
			t.SetF(in.Dst, old)
			addrs[n] = ea
			n++
		}

	case shader.OpLdShared:
		sh := w.Env.SharedMem()
		for m := exec; m != 0; m &= m - 1 {
			t := &w.Threads[bits.TrailingZeros32(m)]
			off := int(shader.EA(in, t))
			if sh != nil && off >= 0 && off+4 <= len(sh) {
				t.SetU(in.Dst, leU32(sh[off:]))
			} else {
				t.SetU(in.Dst, 0)
			}
		}

	case shader.OpStShared:
		sh := w.Env.SharedMem()
		for m := exec; m != 0; m &= m - 1 {
			t := &w.Threads[bits.TrailingZeros32(m)]
			off := int(shader.EA(in, t))
			if sh != nil && off >= 0 && off+4 <= len(sh) {
				putU32(sh[off:], t.U(in.A))
			}
		}

	case shader.OpLdConst:
		base := w.Env.ConstBase()
		for m := exec; m != 0; m &= m - 1 {
			t := &w.Threads[bits.TrailingZeros32(m)]
			ea := base + shader.EA(in, t)
			t.SetU(in.Dst, memory.ReadU32(ea))
			addrs[n] = ea
			n++
		}

	case shader.OpAttr4:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			t := &w.Threads[lane]
			val, addr := w.Env.AttrIn(lane, int(in.Slot))
			for i := 0; i < 4; i++ {
				t.SetF(in.Dst+uint8(i), val[i])
			}
			if addr != 0 {
				addrs[n], addrs[n+1] = addr, addr+12 // vec4 spans 16 bytes
				n += 2
			}
		}

	case shader.OpOut4:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			t := &w.Threads[lane]
			r := in.A.Reg
			val := [4]float32{
				math.Float32frombits(t.Regs[r]),
				math.Float32frombits(t.Regs[r+1]),
				math.Float32frombits(t.Regs[r+2]),
				math.Float32frombits(t.Regs[r+3]),
			}
			if addr := w.Env.OutWrite(lane, int(in.Slot), val); addr != 0 {
				addrs[n] = addr
				n++
			}
		}

	case shader.OpTex4:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			t := &w.Threads[lane]
			u, v := t.F(in.A), t.F(in.B)
			val, texels := w.Env.Tex(lane, int(in.Slot), u, v)
			for i := 0; i < 4; i++ {
				t.SetF(in.Dst+uint8(i), val[i])
			}
			for _, a := range texels {
				if a != 0 {
					addrs[n] = a
					n++
				}
			}
		}

	case shader.OpZLd:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := w.Env.ZAddr(lane)
			w.Threads[lane].SetF(in.Dst, memory.ReadF32(a))
			addrs[n] = a
			n++
		}

	case shader.OpZSt:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := w.Env.ZAddr(lane)
			memory.WriteF32(a, w.Threads[lane].F(in.A))
			addrs[n] = a
			n++
		}

	case shader.OpFBLd:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := w.Env.CAddr(lane)
			w.Threads[lane].SetU(in.Dst, memory.ReadU32(a))
			addrs[n] = a
			n++
		}

	case shader.OpFBSt:
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := w.Env.CAddr(lane)
			memory.WriteU32(a, w.Threads[lane].U(in.A))
			addrs[n] = a
			n++
		}
	}
	return n
}

// barrier handles a warp arriving at bar.
func (c *Core) barrier(w *Warp) {
	if w.BlockID < 0 {
		return // graphics warps have no block barrier
	}
	b := c.blocks[w.BlockID]
	if b == nil {
		return
	}
	w.atBarrier = true
	b.atBarrier++
	if b.atBarrier >= b.live {
		c.releaseBarrier(b)
	}
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
