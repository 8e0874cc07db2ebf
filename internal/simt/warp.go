// Package simt implements the unified SIMT core microarchitecture that
// both graphics shaders and GPGPU kernels execute on — Emerald-Go's
// equivalent of the GPGPU-Sim 3.x core model the paper builds on
// (Table 2): 32-wide warps executing in lock step, per-warp SIMT
// reconvergence stacks, a scoreboard, greedy-then-oldest warp
// scheduling, a coalescing load/store unit and the per-core L1 caches
// (instruction, data, texture, depth, constant/vertex).
package simt

import (
	"fmt"

	"emerald/internal/mem"
	"emerald/internal/shader"
)

// WarpSize is the number of threads per warp (paper: 32).
const WarpSize = 32

// FullMask has one bit per lane.
const FullMask = uint32(0xFFFFFFFF)

// WarpEnv supplies a warp's connection to the outside world: attribute
// and texture data for graphics warps, kernel parameters and shared
// memory for compute warps, and the functional memory. Implementations
// live in the gpu/gfx packages; simt stays substrate-only.
type WarpEnv interface {
	// AttrIn returns the vec4 input attribute for a lane. A non-zero
	// addr means the data logically resides in memory (vertex fetch) and
	// the access is timed through the constant/vertex cache; addr 0
	// means on-chip data (fragment varyings from the raster planes).
	AttrIn(lane, slot int) (val [4]float32, addr uint64)
	// OutWrite consumes a vec4 output. A non-zero addr is timed as a
	// store (vertex outputs stream to the L2-backed output buffer).
	OutWrite(lane, slot int, val [4]float32) (addr uint64)
	// Tex samples texture unit at (u,v), returning the filtered value
	// and the texel addresses touched (timed through L1T; nearest
	// filtering touches one, bilinear up to four; zero entries unused).
	Tex(lane, unit int, u, v float32) (val [4]float32, addrs [4]uint64)
	// ZAddr and CAddr give the lane's depth and color addresses for the
	// in-shader raster operations.
	ZAddr(lane int) uint64
	CAddr(lane int) uint64
	// ConstBase is the base address of the bound uniform bank.
	ConstBase() uint64
	// SharedMem returns the thread block's scratchpad (nil outside
	// compute).
	SharedMem() []byte
	// Memory is the functional backing store.
	Memory() *mem.Memory
	// Retired is invoked when the warp's last thread exits.
	Retired(w *Warp)
}

// stackEntry is one SIMT reconvergence stack level: execute at pc with
// mask until pc reaches rpc, then pop.
type stackEntry struct {
	pc, rpc uint32
	mask    uint32
}

// noRPC marks the bottom stack entry (reconverges only at exit).
const noRPC = ^uint32(0)

// Warp is 32 threads executing one shader in lock step.
type Warp struct {
	ID      int
	Prog    *shader.Program
	Threads [WarpSize]shader.Thread
	Special [WarpSize]shader.Special
	Env     WarpEnv

	// BlockID groups warps into a thread block for barriers/shared mem
	// (compute); graphics warps use block -1.
	BlockID int

	stack      []stackEntry
	pendingRPC uint32

	// pending is the scoreboard: bit r is set while a write to register
	// r is in flight. One bit per register is exact, not an
	// approximation: an instruction whose destination is pending stalls
	// (WAW), so no register ever has two writers in flight.
	pending uint64
	// outstanding memory operations (issued, awaiting data).
	outstanding int
	// gen counts the times this Warp struct has been retired. Cores
	// recycle warps, and a writeback event can outlive the warp that
	// queued it; the event carries the generation it was queued under
	// and is ignored once that no longer matches.
	gen uint32

	readyAt   uint64 // earliest cycle the warp may issue again
	atBarrier bool
	done      bool

	// slot is the warp's index into its core's per-slot scheduling state
	// (Core.slots, the ready set). It belongs to the struct, not to the
	// occupant: a recycled warp keeps it.
	slot int

	// LaunchedAt orders warps for greedy-then-oldest scheduling.
	LaunchedAt uint64

	// launchCycle stamps the launch time for the warp's trace span.
	launchCycle uint64
}

// reset puts w at pc 0 of prog with the given initial active mask, in
// the state of a freshly allocated warp (registers, predicates and
// scoreboard zero). Only the SIMT stack's backing array, the generation
// and the slot survive from the previous occupant.
func (w *Warp) reset(id int, prog *shader.Program, env WarpEnv, blockID int, mask uint32) {
	stack, gen, slot := w.stack[:0], w.gen, w.slot
	*w = Warp{}
	w.ID, w.Prog, w.Env, w.BlockID, w.gen, w.slot = id, prog, env, blockID, gen, slot
	w.stack = append(stack, stackEntry{pc: 0, rpc: noRPC, mask: mask})
	w.pendingRPC = noRPC
}

// Done reports whether every thread has exited.
func (w *Warp) Done() bool { return w.done }

// ActiveMask returns the current top-of-stack mask (0 when done).
func (w *Warp) ActiveMask() uint32 {
	if len(w.stack) == 0 {
		return 0
	}
	return w.stack[len(w.stack)-1].mask
}

// PC returns the current program counter.
func (w *Warp) PC() uint32 {
	if len(w.stack) == 0 {
		return 0
	}
	return w.stack[len(w.stack)-1].pc
}

// reconverge pops stack entries whose pc reached their reconvergence
// point, and drops empty-mask entries.
func (w *Warp) reconverge() {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.mask == 0 || (top.rpc != noRPC && top.pc == top.rpc) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
	w.done = true
}

// branch applies a (possibly divergent) branch. takenMask must be a
// subset of the current active mask.
func (w *Warp) branch(target uint32, takenMask uint32) (diverged bool) {
	top := &w.stack[len(w.stack)-1]
	cur := top.mask
	notTaken := cur &^ takenMask
	switch {
	case takenMask == cur: // uniform taken
		top.pc = target
	case takenMask == 0: // uniform not taken
		top.pc++
	default: // divergence
		// The reconvergence point comes from the preceding ssy. Without
		// one, rpc stays noRPC: the TOS reconvergence entry is then
		// unreachable by pc and gets reclaimed when its lanes exit
		// (correct, if slower — paths serialize to warp exit).
		rpc := w.pendingRPC
		fallthru := top.pc + 1
		// TOS becomes the reconvergence entry: resume at rpc with the
		// pre-branch mask once both paths arrive; its own rpc is
		// unchanged.
		top.pc = rpc
		w.stack = append(w.stack,
			stackEntry{pc: fallthru, rpc: rpc, mask: notTaken},
			stackEntry{pc: target, rpc: rpc, mask: takenMask},
		)
		diverged = true
	}
	w.pendingRPC = noRPC
	return diverged
}

// exitLanes removes lanes from every stack level (thread exit / kill).
func (w *Warp) exitLanes(mask uint32) {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
	if len(w.stack) > 0 {
		// Advance past the exit instruction for any remaining lanes.
		w.stack[len(w.stack)-1].pc++
	}
	w.reconverge()
}

// advance moves past a non-branch instruction.
func (w *Warp) advance() {
	w.stack[len(w.stack)-1].pc++
	w.reconverge()
}

// decoded returns the issue-path table entry of the instruction at the
// warp's pc, or nil when the stack is empty or the pc has run off the
// program.
func (w *Warp) decoded() *shader.Decoded {
	if n := len(w.stack); n > 0 {
		if pc := w.stack[n-1].pc; pc < uint32(len(w.Prog.Decode)) {
			return &w.Prog.Decode[pc]
		}
	}
	return nil
}

// hazard reports whether the instruction has a RAW/WAW hazard against
// the scoreboard.
func (w *Warp) hazard(d *shader.Decoded) bool { return d.Hazard&w.pending != 0 }

// lockDst marks the instruction's destination registers pending and
// returns them for the matching unlock.
func (w *Warp) lockDst(d *shader.Decoded) uint64 {
	w.pending |= d.Dst
	return d.Dst
}

func (w *Warp) String() string {
	return fmt.Sprintf("warp%d pc=%d mask=%08x depth=%d", w.ID, w.PC(), w.ActiveMask(), len(w.stack))
}
