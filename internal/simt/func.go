package simt

import (
	"emerald/internal/mem"
	"emerald/internal/shader"
)

// FuncExec runs one warp to completion functionally: every
// architectural effect of the timed Core — register writes, memory
// loads/stores, texture fetches, attribute input and output streaming —
// happens in program order with no scoreboard, no caches and no cycle
// accounting. Because the timed core also applies all functional
// effects immediately at issue, in lock step per instruction (see
// Core.execute/executeMem), a warp run through FuncExec leaves memory
// and the env bit-identical to the same warp run through the timed
// pipeline. The sampled-simulation functional pass rides on this.
//
// Limits, shared with the graphics pipeline's use of warps: OpBar
// advances without cross-warp coordination (block barriers are a
// compute feature; graphics warps are independent), and Retired is
// invoked once when the last lane exits.
func FuncExec(prog *shader.Program, env WarpEnv, mask uint32, specials [WarpSize]shader.Special) {
	var r FuncRunner
	r.Exec(prog, env, mask, specials)
}

// FuncRunner executes warps functionally, reusing one warp struct, its
// SIMT stack and one page-caching memory view across executions so the
// per-warp hot loop of the sampled-simulation functional pass is
// allocation-free. A runner is single-goroutine and must not outlive a
// Memory.Reset or checkpoint restore of the env's memory (the cached
// view would go stale); the graphics pipeline scopes one runner per
// draw call.
type FuncRunner struct {
	warp Warp
	view *mem.View
	// addrs receives the addresses memEffects gathers for the timing
	// model, which this executor has no use for.
	addrs [4 * WarpSize]uint64
}

// Exec runs one warp to completion with FuncExec semantics.
func (r *FuncRunner) Exec(prog *shader.Program, env WarpEnv, mask uint32, specials [WarpSize]shader.Special) {
	w := &r.warp
	w.reset(0, prog, env, -1, mask)
	w.Special = specials
	if r.view == nil || r.view.Memory() != env.Memory() {
		r.view = mem.NewView(env.Memory())
	}
	for !w.Done() {
		r.step()
	}
	env.Retired(w)
}

// step executes one instruction of the runner's warp, mirroring
// Core.execute with the timing model removed: ALU work and memory
// effects are the timed core's own (shader.ExecALULanes, memEffects),
// through the runner's page-caching view.
func (r *FuncRunner) step() {
	w := &r.warp
	in := &w.Prog.Code[w.PC()]
	exec := predMask(in, w)

	switch in.Op {
	case shader.OpSSY:
		w.pendingRPC = in.Target
		w.advance()
		return
	case shader.OpBra:
		w.branch(in.Target, exec)
		w.reconverge()
		return
	case shader.OpExit, shader.OpKill:
		if exec != 0 {
			w.exitLanes(exec)
		} else {
			w.advance()
		}
		return
	case shader.OpBar:
		w.advance()
		return
	}

	switch shader.ClassOf(in.Op) {
	case shader.ClassALU, shader.ClassSFU:
		shader.ExecALULanes(in, exec, w.Threads[:], w.Special[:])
	default:
		memEffects(w, in, exec, r.view, &r.addrs)
	}
	w.advance()
}
