package dram

import (
	"fmt"

	"emerald/internal/guard"
)

// AttachGuard registers per-channel bank/bus state-machine legality
// invariants. Probes run at the system quiesce point, after every
// channel shard has ticked, so they read stable state even under the
// parallel tick engine. Safe with a nil checker.
func (c *Controller) AttachGuard(g *guard.Checker) {
	for _, ch := range c.Channels {
		ch := ch
		g.Register("dram", c.cfg.Name+"."+ch.track, func(cycle uint64) error {
			return c.checkChannel(ch, cycle)
		})
	}
}

// checkChannel verifies one channel's state machine: the queue honors
// its depth bound, every bank's open row and ready time are legal (the
// data bus serializes transfers, so no bank may be busy past the bus),
// every queued request still sits beside its own decoded location, and
// in-service transfers are still genuinely in flight — a retired
// request lingering here would complete twice (and, once its issuer has
// recycled it, complete somebody else's request).
func (c *Controller) checkChannel(ch *Channel, cycle uint64) error {
	if len(ch.Queue) > c.cfg.QueueDepth {
		return fmt.Errorf("queue holds %d requests, depth %d", len(ch.Queue), c.cfg.QueueDepth)
	}
	if len(ch.locs) != len(ch.Queue) {
		return fmt.Errorf("%d decoded locations for %d queued requests", len(ch.locs), len(ch.Queue))
	}
	for i, req := range ch.Queue {
		if req.Released() || ch.locs[i] != ch.mapping.Decode(req.Addr) {
			return fmt.Errorf("queue slot %d (%#x): released=%v, stored location %+v", i, req.Addr, req.Released(), ch.locs[i])
		}
	}
	for r := range ch.banks {
		for b := range ch.banks[r] {
			bk := &ch.banks[r][b]
			if bk.openRow < -1 {
				return fmt.Errorf("bank %d/%d open row %d is illegal", r, b, bk.openRow)
			}
			if bk.readyAt > ch.busFree {
				return fmt.Errorf("bank %d/%d readyAt %d past bus-free %d", r, b, bk.readyAt, ch.busFree)
			}
		}
	}
	for i := 0; i < ch.inService.Len(); i++ {
		req := *ch.inService.At(i)
		if req.Done {
			return fmt.Errorf("retired request %#x still in service", req.Addr)
		}
		if req.DoneAt <= cycle {
			return fmt.Errorf("in-service request %#x due at %d not retired by cycle %d", req.Addr, req.DoneAt, cycle)
		}
		if req.DoneAt > ch.busFree {
			return fmt.Errorf("in-service request %#x finishes at %d past bus-free %d", req.Addr, req.DoneAt, ch.busFree)
		}
	}
	return nil
}

// Diagnose renders per-channel occupancy for a watchdog bundle: queue
// depth, transfers in service, how far ahead the data bus is booked,
// and which rows each bank holds open.
func (c *Controller) Diagnose(cycle uint64) []string {
	lines := make([]string, 0, len(c.Channels))
	for _, ch := range c.Channels {
		open := 0
		for r := range ch.banks {
			for b := range ch.banks[r] {
				if ch.banks[r][b].openRow >= 0 {
					open++
				}
			}
		}
		busAhead := int64(0)
		if ch.busFree > cycle {
			busAhead = int64(ch.busFree - cycle)
		}
		lines = append(lines, fmt.Sprintf("%s: queued=%d inService=%d busFree=+%d openBanks=%d bytes=%d",
			ch.track, len(ch.Queue), ch.inService.Len(), busAhead, open, ch.bytes.Value()))
	}
	return lines
}
