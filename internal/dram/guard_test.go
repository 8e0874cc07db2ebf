package dram

import (
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/interconnect"
	"emerald/internal/mem"
)

// A request that leaves a channel queue without moving the room
// counter: the crossbar's parked flit, refused for a full queue, is
// re-offered by the guarded crossbar and taken with the counter
// unmoved. The guard must report it; the same run with a counted
// removal reports nothing.
func TestGuardCatchesARemovalThatDoesNotMoveRoom(t *testing.T) {
	for _, forget := range []bool{false, true} {
		c := NewController(Config{Name: "dram", Geometry: LPDDR3Geometry(1), Timing: LPDDR3Timing(1333), QueueDepth: 1}, nil)
		x := interconnect.Connect(interconnect.Config{Name: "noc", Ports: 2, Width: 2}, c, nil)
		g := guard.NewChecker()
		x.AttachGuard(g)
		x.Push(0, &mem.Request{Addr: 0x000, Size: 64})
		x.Push(1, &mem.Request{Addr: 0x800, Size: 64})
		x.Tick(0)
		x.Tick(1) // the first fills the queue, the second parks
		g.Tick(1)
		if len(c.Channels[0].Queue) != 1 || !x.Busy() || len(g.Violations()) != 0 {
			t.Fatalf("setup: queued %d, crossbar busy %v, violations %v", len(c.Channels[0].Queue), x.Busy(), g.Violations())
		}
		c.Tick(2) // issues the queued request: the queue has room
		if len(c.Channels[0].Queue) != 0 {
			t.Fatal("setup: the queued request did not issue")
		}
		if forget {
			c.room--
		}
		x.Tick(2)
		g.Tick(2)
		v := g.Violations()
		if caught := len(v) > 0 && strings.Contains(v[0].Detail, "has not moved"); caught != forget || x.Busy() {
			t.Fatalf("forget=%v: violations = %v, crossbar busy = %v", forget, v, x.Busy())
		}
	}
}
