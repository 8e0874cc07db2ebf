package cpu

import (
	"errors"
	"fmt"

	"emerald/internal/guard"
)

// AttachGuard registers the core's cache hierarchy MSHR invariants and
// turns on the wait audit: a cycle the memoised wake covers is ticked
// anyway, and a tick there that is not a gated no-op is reported.
// Safe with a nil checker.
func (c *Core) AttachGuard(g *guard.Checker) {
	track := fmt.Sprintf("cpu%d", c.Cfg.ID)
	c.audit = g.Enabled()
	g.Register("cpu", track+".wait", func(uint64) error {
		if c.lostWait != "" {
			return errors.New(c.lostWait)
		}
		return nil
	})
	c.L1I.AttachGuard(g, track+".l1i")
	c.L1D.AttachGuard(g, track+".l1d")
	c.L2.AttachGuard(g, track+".l2")
}

// Diagnose renders the core's execution state as one line for a
// watchdog bundle.
func (c *Core) Diagnose(cycle uint64) string {
	state := "running"
	switch {
	case c.halted:
		state = "halted"
	case c.waitingMem:
		state = "mem-wait"
	case c.stallUntil > cycle:
		state = fmt.Sprintf("stalled(until=%d)", c.stallUntil)
	}
	return fmt.Sprintf("cpu%d: pc=%d instrs=%d %s mshrs: l1i=%d l1d=%d l2=%d",
		c.Cfg.ID, c.PC, c.instrs.Value(), state,
		c.L1I.PendingMisses(), c.L1D.PendingMisses(), c.L2.PendingMisses())
}
