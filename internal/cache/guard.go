package cache

import (
	"fmt"

	"emerald/internal/guard"
	"emerald/internal/mem"
)

// AttachGuard registers this cache's MSHR-accounting invariants under
// the given probe name (e.g. "core0_0.l1d"). Safe with a nil checker.
func (c *Cache) AttachGuard(g *guard.Checker, name string) {
	g.Register("cache", name, c.checkInvariants)
}

// checkInvariants verifies the MSHR bookkeeping that every fill path
// relies on: live MSHRs never exceed capacity, the issue-order fill
// list and the per-set chains hold the same MSHRs (a broken pairing is
// an MSHR leak: the line would never fill and its waiters would
// wedge), each fill request carries its MSHR, merged waiters respect
// the per-line target cap, and nothing this cache holds or has queued
// is a request already released to a free list.
func (c *Cache) checkInvariants(cycle uint64) error {
	if c.live > c.cfg.MSHRs {
		return fmt.Errorf("%d MSHRs live, capacity %d", c.live, c.cfg.MSHRs)
	}
	fills := 0
	for m := c.fills; m != nil; m = m.next {
		fills++
		chained := c.setMSHR[m.set]
		for chained != nil && chained != m {
			chained = chained.chain
		}
		switch {
		case chained == nil:
			return fmt.Errorf("in-flight fill of line %#x has no MSHR in its set", m.lineAddr)
		case m.req.Released() || m.req.Tag != m || m.req.Addr != m.lineAddr:
			return fmt.Errorf("fill of line %#x lost its request (released=%v addr=%#x)", m.lineAddr, m.req.Released(), m.req.Addr)
		case len(m.waiters) > c.cfg.MSHRTargets:
			return fmt.Errorf("MSHR %#x holds %d waiters, cap %d", m.lineAddr, len(m.waiters), c.cfg.MSHRTargets)
		}
		for _, w := range m.waiters {
			if r, ok := w.(*mem.Request); ok && r.Released() {
				return fmt.Errorf("MSHR %#x waits on behalf of a released request", m.lineAddr)
			}
		}
	}
	chained := 0
	for _, m := range c.setMSHR {
		for ; m != nil; m = m.chain {
			chained++
		}
	}
	if fills != c.live || chained != c.live {
		return fmt.Errorf("MSHR leak: %d MSHRs vs %d in-flight fills (%d chained in sets)", c.live, fills, chained)
	}
	if err := c.Out.AuditReleased(); err != nil {
		return fmt.Errorf("output port: %w", err)
	}
	for _, wb := range c.pendingWB {
		if wb.Released() {
			return fmt.Errorf("a buffered writeback was released")
		}
	}
	// Wheel audit: the O(1) done-fill counter must agree with a scan of
	// the fills. A lost RequestDone would make NextWake report "nothing
	// to install" past a ready fill, parking the cache's owner while
	// data sits undelivered.
	if msg := c.AuditDoneFills(); msg != "" {
		return fmt.Errorf("done-fill counter drift: %s", msg)
	}
	return nil
}
