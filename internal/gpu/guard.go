package gpu

import (
	"fmt"

	"emerald/internal/guard"
)

// AttachGuard registers invariant probes across the GPU: the L2's MSHR
// accounting, the cluster NoC's credit conservation and room audit,
// every SIMT core's reconvergence-stack and L1 invariants, each TC
// unit's dry latch, and the drained latch. Safe with a nil checker.
func (g *GPU) AttachGuard(gc *guard.Checker) {
	g.L2.AttachGuard(gc, "l2")
	g.noc.AttachGuard(gc)
	for _, cl := range g.clusters {
		for _, core := range cl.cores {
			core.AttachGuard(gc)
		}
		tc := cl.tc
		gc.Register("gpu", cl.track+".tc", func(uint64) error { return tc.AuditDry() })
	}
	gc.Register("gpu", "drained", g.checkDrained)
	gc.Register("gpu", "requests", g.checkRequests)
}

// checkRequests audits the request ownership rule from the GPU's side:
// nothing it holds for later — an L2 hit completion, a setup fetch, its
// output port — is a request its issuer has already released.
func (g *GPU) checkRequests(uint64) error {
	for i := 0; i < g.l2Events.Len(); i++ {
		if g.l2Events.At(i).req.Released() {
			return fmt.Errorf("L2 hit completion %d carries a released request", i)
		}
	}
	if err := g.Out.AuditReleased(); err != nil {
		return fmt.Errorf("output port: %w", err)
	}
	for _, cl := range g.clusters {
		for i, r := range cl.setup.reqs {
			if held := cl.setup.prim != nil && i < cl.setup.issued; held != (r != nil) || held && r.Released() {
				return fmt.Errorf("%s: setup fetch %d: held=%v, request %v", cl.track, i, held, r)
			}
		}
	}
	return nil
}

// checkDrained audits the drained latch at the end-of-cycle quiesce
// point against a predicate that shares no code with NextWake: a
// latched GPU skips every tick until the next submission, so it must
// hold no work anywhere. A violation means the latch was set over work
// in flight, or an input path reached the GPU without clearing it —
// the silent-correctness failure the time-advance digest gates can only
// catch after the fact.
func (g *GPU) checkDrained(uint64) error {
	if g.drained && (g.Busy() || g.Out.Len() > 0) {
		return fmt.Errorf("latched as drained but busy (activeDraw=%v queuedDraws=%d kernels=%d outQueue=%d)",
			g.draw != nil, g.drawQueue.Len(), g.kernels.Len(), g.Out.Len())
	}
	return nil
}

// Progress returns a monotone progress signature for the watchdog: it
// changes whenever any SIMT core issues an instruction, a fragment is
// shaded, or a draw retires.
func (g *GPU) Progress() uint64 {
	var sig int64
	for _, cl := range g.clusters {
		for _, core := range cl.cores {
			sig += core.Instructions()
		}
	}
	sig += g.fragsShadedC.Value() + g.drawsDone.Value()
	return uint64(sig)
}

// diagWarpLines caps per-core warp detail in watchdog bundles.
const diagWarpLines = 8

// Diagnose appends the GPU's stuck state to a watchdog bundle: front
// end occupancy, cluster NoC credits, and per-core warp/LSU state for
// every core still holding work.
func (g *GPU) Diagnose(d *guard.Diag, cycle uint64) {
	front := fmt.Sprintf("activeDraw=%v queuedDraws=%d kernels=%d l2Events=%d l2Mshrs=%d outQueue=%d",
		g.draw != nil, g.drawQueue.Len(), g.kernels.Len(), g.l2Events.Len(),
		g.L2.PendingMisses(), g.Out.Len())
	d.Add("gpu front end", []string{front})
	d.Add("gpu noc", g.noc.Diagnose(cycle))
	for _, cl := range g.clusters {
		for _, core := range cl.cores {
			if lines := core.Diagnose(cycle, diagWarpLines); lines != nil {
				d.Add(fmt.Sprintf("core%d_%d", cl.id, core.Cfg.ID), lines)
			}
		}
	}
}
