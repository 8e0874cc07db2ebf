package gpu

import (
	"errors"
	"fmt"

	"emerald/internal/guard"
)

// AttachGuard registers invariant probes across the GPU: the L2's MSHR
// accounting, the cluster NoC's credit conservation and room audit,
// every SIMT core's reconvergence-stack and L1 invariants, each TC
// unit's dry latch, and the GPU's own request ownership. It turns on
// the wait audit: a cycle the memoised wait covers runs the full tick,
// and one that moves anything is reported. Safe with a nil checker.
func (g *GPU) AttachGuard(gc *guard.Checker) {
	g.audit = gc.Enabled()
	g.waitUntil = 0
	g.L2.AttachGuard(gc, "l2")
	g.noc.AttachGuard(gc)
	for _, cl := range g.clusters {
		for _, core := range cl.cores {
			core.AttachGuard(gc)
		}
		tc := cl.tc
		gc.Register("gpu", cl.track+".tc", func(uint64) error { return tc.AuditDry() })
	}
	gc.Register("gpu", "wait", func(uint64) error {
		if g.lostWait != "" {
			return errors.New(g.lostWait)
		}
		return nil
	})
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

// waitMarks is what a tick inside the memoised wait must leave unmoved:
// the watchdog's progress signature, the output port, the draws retired
// and the front end's state.
type waitMarks struct {
	progress             uint64
	out, queued          int
	draws, fragsLaunched int64
	drawing              bool
	launched, assembled  int
}

func (g *GPU) marks() waitMarks {
	m := waitMarks{progress: g.Progress(), out: g.Out.Len(), queued: g.drawQueue.Len() + g.kernels.Len(),
		draws: g.drawsDone.Value(), drawing: g.draw != nil}
	if d := g.draw; d != nil {
		m.launched, m.assembled, m.fragsLaunched = d.nextLaunch, d.nextAssemble, d.fragsLaunched
	}
	return m
}

// auditWait runs the full tick on a cycle the memoised wait covers and
// records the first such tick that moved anything the marks see: a
// wait memoised past due work, or an input that reached the GPU
// without ending it.
func (g *GPU) auditWait(cycle uint64) {
	want := g.marks()
	g.step(cycle)
	if got := g.marks(); got != want && g.lostWait == "" {
		g.lostWait = fmt.Sprintf("cycle %d: waiting until %d, but the tick moved %+v to %+v",
			cycle, g.waitUntil, want, got)
	}
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
