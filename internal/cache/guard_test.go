package cache

import (
	"errors"
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/mem"
)

// A healthy miss keeps the MSHR/in-flight pairing balanced; severing it
// by hand must trip the MSHR-leak probe and surface through Err().
func TestGuardDetectsMSHRLeak(t *testing.T) {
	c := New(testConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g, "l1")

	if res := c.Access(0, 0x100, mem.Read, "w1"); res != Miss {
		t.Fatalf("access = %v, want miss", res)
	}
	g.Tick(0)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("healthy cache reported violations: %v", v)
	}

	// Corrupt the bookkeeping: the fill vanishes but its MSHR stays
	// live, so the waiters would wedge forever.
	c.fills, c.fillEnd = nil, &c.fills
	g.Tick(1)
	v := g.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Detail, "MSHR leak") {
		t.Fatalf("violations = %v, want one MSHR leak", v)
	}
	if v[0].Source != "cache" || v[0].Name != "l1" || v[0].Cycle != 1 {
		t.Fatalf("violation attribution = %+v", v[0])
	}
	if err := g.Err(); !errors.Is(err, guard.ErrInvariant) {
		t.Fatalf("Err() = %v, want ErrInvariant", err)
	}
}

// An in-flight fill with no MSHR is the inverse leak.
func TestGuardDetectsOrphanFill(t *testing.T) {
	c := New(testConfig(), nil)
	g := guard.NewChecker()
	c.AttachGuard(g, "l1")
	if res := c.Access(0, 0x100, mem.Read, nil); res != Miss {
		t.Fatalf("access = %v, want miss", res)
	}
	// Duplicate the fill: counts diverge.
	c.fills.next = &mshr{c: c, lineAddr: 0x100, set: c.fills.set, req: c.fills.req}
	g.Tick(0)
	if v := g.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
}
