package interconnect

import (
	"errors"
	"fmt"
	"strings"

	"emerald/internal/guard"
)

// AttachGuard registers the crossbar's credit-conservation invariants:
// the arrived and in-flight flits never exceed their credit pool (4
// flits per unit of width — the bound Tick enforces to backpressure a
// blocked sink) and no port queue overruns its depth. It also turns on
// the room audit: parked flits are re-offered every cycle instead of
// charged, and a sink that takes one its room counter said it would
// refuse is reported as a room event that forgot to move the counter.
// Safe with a nil checker.
func (x *Crossbar) AttachGuard(g *guard.Checker) {
	x.audit = g.Enabled()
	g.Register("noc", x.cfg.Name, x.checkInvariants)
}

func (x *Crossbar) checkInvariants(cycle uint64) error {
	if x.lost != "" {
		return errors.New(x.lost)
	}
	if n, credits := x.inflight.Len()+len(x.parked), 4*x.cfg.Width; n > credits {
		return fmt.Errorf("%d flits in flight or parked, credit limit %d", n, credits)
	}
	for i, r := range x.parked {
		if r.Released() {
			return fmt.Errorf("parked flit %d carries a released request", i)
		}
	}
	for i := 0; i < x.inflight.Len(); i++ {
		f := x.inflight.At(i)
		if f.req.Released() {
			return fmt.Errorf("flit %d carries a released request", i)
		}
		if i > 0 && f.arrives < x.inflight.At(i-1).arrives {
			return fmt.Errorf("flit %d arrives at %d, before the flit ahead of it", i, f.arrives)
		}
	}
	for i, p := range x.ports {
		if p.Len() > x.cfg.Depth {
			return fmt.Errorf("port %d holds %d requests, depth %d", i, p.Len(), x.cfg.Depth)
		}
		if err := p.AuditReleased(); err != nil {
			return fmt.Errorf("port %d: %w", i, err)
		}
	}
	return nil
}

// Diagnose renders the crossbar's occupancy as one line for a watchdog
// bundle (nil when idle).
func (x *Crossbar) Diagnose(cycle uint64) []string {
	if !x.Busy() {
		return nil
	}
	var occ strings.Builder
	for i, p := range x.ports {
		if i > 0 {
			occ.WriteByte(' ')
		}
		fmt.Fprintf(&occ, "p%d=%d", i, p.Len())
	}
	return []string{fmt.Sprintf("%s: inflight=%d/%d (parked %d) ports: %s",
		x.cfg.Name, x.inflight.Len()+len(x.parked), 4*x.cfg.Width, len(x.parked), occ.String())}
}
