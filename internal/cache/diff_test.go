package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"emerald/internal/mem"
	"emerald/internal/stats"
)

// sut is what the differential test needs of a cache; Cache and the
// parent's refCache both provide it.
type sut interface {
	Access(cycle, addr uint64, kind mem.Kind, waiter any) Result
	Tick(cycle uint64)
	Contains(addr uint64) bool
	PendingMisses() int
	Quiet() bool
	NextWake(cycle uint64) uint64
}

// diffSide is one cache under test with everything observable about it:
// its port, the order OnReady fired in, and the fills downstream holds.
type diffSide struct {
	sut
	out   *mem.Queue
	reg   *stats.Registry
	ready []int          // waiter ids in OnReady order since last compare
	fills []*mem.Request // popped fill reads not yet completed, pop order
}

func (s *diffSide) counters() string {
	var b []byte
	s.reg.Each(func(name string, v int64) { b = fmt.Appendf(b, "%s=%d ", name, v) })
	return string(b)
}

// TestDifferentialAgainstParentCache drives the flat, pooled cache and
// the parent commit's implementation (ref_test.go) side by side with
// seeded random streams over the three policy sets in use, and compares
// everything the rest of the machine can see: each call's Result, the
// emitted request sequence (address, kind, issue cycle, order), OnReady
// order, every counter, occupancy, NextWake and residency. Downstream
// is adversarial: a short output port that is drained irregularly (so
// it refuses), fills completed late and out of order, ticks skipped so
// several done fills pile up, few MSHRs and targets so both run out.
func TestDifferentialAgainstParentCache(t *testing.T) {
	policies := []struct {
		name   string
		cfg    Config
		writes bool
	}{
		{"l1d write-through no-allocate", Config{WriteThrough: true}, true},
		{"l1z/l2 write-back allocate", Config{WriteBack: true, Allocate: true}, true},
		{"l1t/l1c read-only", Config{}, false},
	}
	shapes := []struct{ size, line, ways, mshrs, targets, lines int }{
		{1024, 64, 2, 4, 3, 40},          // 8 sets, tiny MSHR file
		{128 * 21 * 3, 128, 3, 6, 2, 90}, // 21 sets: the non-power-of-two divide
		{64 * 8, 64, 8, 8, 4, 24},        // one set, fully associative
	}
	for _, pol := range policies {
		for si, sh := range shapes {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := pol.cfg
				cfg.Name, cfg.SizeBytes, cfg.LineBytes, cfg.Ways = "c", sh.size, sh.line, sh.ways
				cfg.MSHRs, cfg.MSHRTargets, cfg.Client, cfg.ClientID = sh.mshrs, sh.targets, mem.ClientGPU, 3
				name := fmt.Sprintf("%s/shape%d/seed%d", pol.name, si, seed)
				t.Run(name, func(t *testing.T) { diffRun(t, cfg, pol.writes, sh.lines, seed) })
			}
		}
	}
}

func diffRun(t *testing.T, cfg Config, writes bool, lines int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	newReg, refReg := stats.NewRegistry(), stats.NewRegistry()
	n, r := New(cfg, newReg), newRef(cfg, refReg)
	n.Out, r.Out = mem.NewQueue(5), mem.NewQueue(5)
	a := &diffSide{sut: n, out: n.Out, reg: newReg}
	b := &diffSide{sut: r, out: r.Out, reg: refReg}
	n.OnReady = func(w any, _ uint64) { a.ready = append(a.ready, w.(int)) }
	r.OnReady = func(w any, _ uint64) { b.ready = append(b.ready, w.(int)) }

	waiter := 0
	for cycle := uint64(0); cycle < 3000; cycle++ {
		where := func(what string) string { return fmt.Sprintf("cycle %d: %s", cycle, what) }
		for k := rng.Intn(4); k > 0; k-- {
			addr := uint64(rng.Intn(lines))*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
			kind := mem.Read
			if writes && rng.Intn(3) == 0 {
				kind = mem.Write
			}
			var w any
			if rng.Intn(5) > 0 {
				waiter++
				w = waiter
			}
			if ra, rb := a.Access(cycle, addr, kind, w), b.Access(cycle, addr, kind, w); ra != rb {
				t.Fatalf("%s", where(fmt.Sprintf("Access(%#x, %v) = %v, parent %v", addr, kind, ra, rb)))
			}
		}
		// Downstream takes a few requests off both ports, in step.
		for k := rng.Intn(4); k > 0 && a.out.Len() > 0; k-- {
			qa, qb := a.out.Pop(), b.out.Pop()
			if qb == nil || qa.Addr != qb.Addr || qa.Kind != qb.Kind || qa.Size != qb.Size ||
				qa.IssuedAt != qb.IssuedAt || qa.Client != qb.Client || qa.ClientID != qb.ClientID {
				t.Fatalf("%s", where(fmt.Sprintf("emitted %+v, parent %+v", qa, qb)))
			}
			if qa.Kind == mem.Write {
				qa.Complete(cycle)
				qb.Complete(cycle)
			} else {
				a.fills, b.fills = append(a.fills, qa), append(b.fills, qb)
			}
		}
		if a.out.Len() != b.out.Len() {
			t.Fatalf("%s", where(fmt.Sprintf("port holds %d, parent %d", a.out.Len(), b.out.Len())))
		}
		// Fills return late and in any order.
		for k := rng.Intn(3); k > 0 && len(a.fills) > 0; k-- {
			i := rng.Intn(len(a.fills))
			a.fills[i].Complete(cycle)
			b.fills[i].Complete(cycle)
			a.fills = append(a.fills[:i], a.fills[i+1:]...)
			b.fills = append(b.fills[:i], b.fills[i+1:]...)
		}
		if rng.Intn(3) > 0 {
			a.Tick(cycle)
			b.Tick(cycle)
		}
		if fmt.Sprint(a.ready) != fmt.Sprint(b.ready) {
			t.Fatalf("%s", where(fmt.Sprintf("OnReady order %v, parent %v", a.ready, b.ready)))
		}
		a.ready, b.ready = a.ready[:0], b.ready[:0]
		if ca, cb := a.counters(), b.counters(); ca != cb {
			t.Fatalf("%s", where("counters "+ca+", parent "+cb))
		}
		if a.PendingMisses() != b.PendingMisses() || a.Quiet() != b.Quiet() || a.NextWake(cycle) != b.NextWake(cycle) {
			t.Fatalf("%s", where(fmt.Sprintf("misses/quiet/wake %d %v %d, parent %d %v %d",
				a.PendingMisses(), a.Quiet(), a.NextWake(cycle), b.PendingMisses(), b.Quiet(), b.NextWake(cycle))))
		}
		if err := n.checkInvariants(cycle); err != nil {
			t.Fatalf("%s", where("guard: "+err.Error()))
		}
		if cycle%16 == 0 {
			for l := 0; l < lines; l++ {
				if addr := uint64(l * cfg.LineBytes); a.Contains(addr) != b.Contains(addr) {
					t.Fatalf("%s", where(fmt.Sprintf("Contains(%#x) = %v, parent disagrees", addr, a.Contains(addr))))
				}
			}
		}
	}
	if waiter == 0 || len(a.fills) > cfg.MSHRs {
		t.Fatalf("stream did not exercise the cache: %d waiters, %d fills outstanding", waiter, len(a.fills))
	}
}

// A back-pressured access builds nothing: with the output port full, a
// new miss and a write-through store are refused before a request is
// taken from the pool, retry after retry. (At the parent commit each
// retry allocated one request and dropped it.)
func TestBlockedAccessAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{testConfig(), {Name: "wt", SizeBytes: 1024, LineBytes: 64, Ways: 2, WriteThrough: true}} {
		c := New(cfg, nil)
		for c.Out.Push(&mem.Request{Addr: 0xF000, Kind: mem.Read}) {
		}
		kind := mem.Read
		if cfg.WriteThrough {
			kind = mem.Write
		}
		cycle := uint64(0)
		if a := testing.AllocsPerRun(100, func() {
			if res := c.Access(cycle, 0x100, kind, nil); res != Blocked {
				t.Fatalf("access with a full port = %v, want blocked", res)
			}
			cycle++
		}); a != 0 {
			t.Fatalf("%s: a blocked access allocates %v objects per retry, want 0", cfg.Name, a)
		}
	}
}

// The request ownership rule from the cache's side: its fills go back
// to its own pool at install and are reused by the next miss; stores
// and writebacks are reclaimed, in issue order, once downstream has
// completed them; a request the cache did not build is never adopted.
func TestRequestsAreRecycledByTheirIssuer(t *testing.T) {
	c := New(testConfig(), nil)
	c.Access(0, 0x000, mem.Read, nil)
	fill := c.Out.Pop()
	fill.Complete(1)
	c.Tick(1)
	if !fill.Released() || !fill.Done || fill.Tag != nil || fill.Addr == 0x000 {
		t.Fatalf("installed fill was not released and scribbled: %+v", fill)
	}
	c.Access(2, 0x040, mem.Write, nil) // write-allocate: a new fill
	if again := c.Out.Pop(); again != fill || again.Released() || again.Addr != 0x040 || again.Done {
		t.Fatalf("next miss did not reuse the released fill cleanly: %+v", again)
	}
	fill.Complete(3)
	c.Tick(3)

	// Evicting the dirty line fires a writeback; once that completes its
	// struct serves the next request the cache builds.
	c.Access(4, 0x240, mem.Read, nil)
	c.Access(4, 0x440, mem.Read, nil) // same set as 0x040: 2 ways, 8 sets
	for i := 0; i < 2; i++ {
		c.Out.Pop().Complete(5)
	}
	c.Tick(5)
	wb := c.Out.Pop()
	if wb == nil || wb.Kind != mem.Write || wb.Addr != 0x040 {
		t.Fatalf("expected the writeback of 0x040, got %+v", wb)
	}
	foreign := &mem.Request{Addr: 0xF000, Kind: mem.Read}
	c.Out.Push(foreign)
	c.Out.Pop()
	foreign.Complete(6)
	c.Access(6, 0x300, mem.Read, nil) // both earlier fills are on the free list
	c.Access(6, 0x340, mem.Read, nil)
	c.Access(6, 0x380, mem.Read, nil) // free list empty; writeback not done: a new struct
	for i := 0; i < 3; i++ {
		if r := c.Out.Pop(); r == wb || r == foreign {
			t.Fatalf("fill %d reused a request that is still in flight or not the cache's", i)
		}
	}
	wb.Complete(7)
	c.Access(8, 0x3C0, mem.Read, nil)
	if r := c.Out.Pop(); r != wb {
		t.Fatal("completed writeback was not reclaimed by the next miss")
	}
}

// Quiet reports whether Tick would be a no-op and no queued output is
// waiting to drain: no buffered writebacks, no in-flight fills and an
// empty output port. Only the differential check compares it.
func (c *Cache) Quiet() bool {
	return len(c.pendingWB) == 0 && c.live == 0 && c.Out.Len() == 0
}
