package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/interconnect"
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

// nocSink puts a cache behind a crossbar the way the GPU's L2 sits
// behind its NoC.
type nocSink struct {
	c     *Cache
	cycle uint64
}

func (s *nocSink) Push(r *mem.Request) bool {
	return s.c.Access(s.cycle, r.Addr, r.Kind, r) != Blocked
}
func (s *nocSink) Room() uint64              { return s.c.Room() }
func (s *nocSink) Refused(rs []*mem.Request) { s.c.RefusedAll(s.cycle, rs) }

// A fill installed without moving the room counter: the crossbar's
// parked flit, which waits on the one MSHR, is re-offered by the
// guarded crossbar and taken with the counter unmoved. The guard must
// report it; the same run with a healthy install reports nothing.
func TestGuardCatchesAnInstallThatDoesNotMoveRoom(t *testing.T) {
	for _, forget := range []bool{false, true} {
		cfg := testConfig()
		cfg.MSHRs = 1
		s := &nocSink{c: New(cfg, nil)}
		s.c.OnReady = func(any, uint64) {}
		x := interconnect.Connect(interconnect.Config{Name: "noc", Latency: 1, Width: 1}, s, nil)
		g := guard.NewChecker()
		x.AttachGuard(g)
		x.Push(0, &mem.Request{Addr: 0x000})
		x.Push(0, &mem.Request{Addr: 0x400})
		var fill *mem.Request
		for s.cycle = 0; s.cycle < 4; s.cycle++ {
			x.Tick(s.cycle) // 0x000 takes the MSHR at 1, 0x400 parks behind it at 2
			g.Tick(s.cycle)
			if s.cycle == 1 {
				fill = s.c.Out.Pop()
			}
		}
		fill.Complete(s.cycle)
		s.c.Tick(s.cycle)
		if forget {
			s.c.room--
		}
		x.Tick(s.cycle)
		g.Tick(s.cycle)
		v := g.Violations()
		if caught := len(v) > 0 && strings.Contains(v[0].Detail, "has not moved"); caught != forget || x.Busy() {
			t.Fatalf("forget=%v: violations = %v, crossbar busy = %v", forget, v, x.Busy())
		}
	}
}

// Refused has exactly the effects of the Blocked Access it stands for,
// including the write-through store hit's LRU touch, under every policy
// in use.
func TestRefusedHasTheEffectsOfABlockedAccess(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "wt", SizeBytes: 512, LineBytes: 64, Ways: 2, MSHRs: 2, MSHRTargets: 1, WriteThrough: true},
		{Name: "wb", SizeBytes: 512, LineBytes: 64, Ways: 2, MSHRs: 2, MSHRTargets: 1, WriteBack: true, Allocate: true},
		{Name: "ro", SizeBytes: 512, LineBytes: 64, Ways: 2, MSHRs: 2, MSHRTargets: 1},
	} {
		rng := rand.New(rand.NewSource(1))
		a, b := New(cfg, nil), New(cfg, nil)
		a.OnReady, b.OnReady = func(any, uint64) {}, func(any, uint64) {}
		a.Out, b.Out = mem.NewQueue(2), mem.NewQueue(2)
		blocked := 0
		for cycle := uint64(0); cycle < 4000; cycle++ {
			addr, kind := uint64(rng.Intn(24))*64, mem.Read
			if rng.Intn(2) == 0 {
				kind = mem.Write
			}
			if ra := a.Access(cycle, addr, kind, 1); ra == Blocked {
				b.Refused(cycle, addr, kind)
				blocked++
			} else if rb := b.Access(cycle, addr, kind, 1); rb != ra {
				t.Fatalf("%s cycle %d: the caches diverged before the check (%v vs %v)", cfg.Name, cycle, ra, rb)
			}
			if rng.Intn(3) == 0 {
				for _, c := range []*Cache{a, b} {
					if r := c.Out.Pop(); r != nil {
						r.Complete(cycle)
					}
					c.Tick(cycle)
				}
			}
			if fmt.Sprint(a.tags, a.lru, a.dirty, a.accesses.Value(), a.hits.Value(), a.misses.Value()) !=
				fmt.Sprint(b.tags, b.lru, b.dirty, b.accesses.Value(), b.hits.Value(), b.misses.Value()) {
				t.Fatalf("%s cycle %d: Refused(%#x, %v) left the cache unlike a blocked Access", cfg.Name, cycle, addr, kind)
			}
		}
		if blocked == 0 {
			t.Fatalf("%s: nothing was ever blocked", cfg.Name)
		}
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
