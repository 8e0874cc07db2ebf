package cache

import (
	"math/rand"
	"testing"

	"emerald/internal/mem"
	"emerald/internal/stats"
)

func testConfig() Config {
	return Config{
		Name:      "l1",
		SizeBytes: 1024,
		LineBytes: 64,
		Ways:      2,
		MSHRs:     4,
		WriteBack: true,
		Allocate:  true,
	}
}

// drain completes every outstanding downstream request immediately and
// ticks the cache, simulating an ideal next level.
func drain(c *Cache, cycle uint64) []*mem.Request {
	var served []*mem.Request
	for i := 0; i < 8; i++ { // a few rounds: Tick can emit writebacks
		for {
			r := c.Out.Pop()
			if r == nil {
				break
			}
			r.Complete(cycle)
			served = append(served, r)
		}
		c.Tick(cycle)
		if c.Out.Len() == 0 && c.PendingMisses() == 0 {
			break
		}
	}
	return served
}

func TestMissThenHit(t *testing.T) {
	c := New(testConfig(), nil)
	var ready []any
	c.OnReady = func(w any, _ uint64) { ready = append(ready, w) }

	if res := c.Access(0, 0x100, mem.Read, "w1"); res != Miss {
		t.Fatalf("first access = %v, want miss", res)
	}
	drain(c, 10)
	if len(ready) != 1 || ready[0] != "w1" {
		t.Fatalf("waiters = %v, want [w1]", ready)
	}
	if res := c.Access(11, 0x100, mem.Read, nil); res != Hit {
		t.Fatalf("second access = %v, want hit", res)
	}
	if res := c.Access(11, 0x13C, mem.Read, nil); res != Hit {
		t.Fatalf("same-line access = %v, want hit", res)
	}
}

func TestMSHRMerge(t *testing.T) {
	c := New(testConfig(), nil)
	var ready []any
	c.OnReady = func(w any, _ uint64) { ready = append(ready, w) }

	c.Access(0, 0x200, mem.Read, "a")
	if res := c.Access(1, 0x210, mem.Read, "b"); res != Miss {
		t.Fatalf("merge access = %v, want miss", res)
	}
	if c.Out.Len() != 1 {
		t.Fatalf("merged miss must not issue a second fill, out=%d", c.Out.Len())
	}
	drain(c, 5)
	if len(ready) != 2 {
		t.Fatalf("both waiters must wake, got %v", ready)
	}
}

func TestMSHRExhaustionBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	c := New(cfg, nil)
	c.Access(0, 0x000, mem.Read, nil)
	c.Access(0, 0x040, mem.Read, nil)
	if res := c.Access(0, 0x080, mem.Read, nil); res != Blocked {
		t.Fatalf("third distinct miss = %v, want blocked", res)
	}
}

func TestMSHRTargetLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRTargets = 2
	c := New(cfg, nil)
	c.Access(0, 0x0, mem.Read, "a")
	c.Access(0, 0x4, mem.Read, "b")
	if res := c.Access(0, 0x8, mem.Read, "c"); res != Blocked {
		t.Fatalf("over-merged access = %v, want blocked", res)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 128 // 1 set, 2 ways of 64B
	c := New(cfg, nil)

	// Fill both ways, dirty one of them.
	c.Access(0, 0x000, mem.Write, nil)
	c.Access(0, 0x040, mem.Read, nil)
	drain(c, 1)
	if c.Accesses() != 2 {
		t.Fatalf("accesses = %d", c.Accesses())
	}
	// Both lines resident; a third line evicts the LRU (0x000, dirty).
	c.Access(2, 0x040, mem.Read, nil) // touch 0x40 so 0x0 is LRU
	c.Access(3, 0x080, mem.Read, nil)
	served := drain(c, 9)
	var sawWB bool
	for _, r := range served {
		if r.Kind == mem.Write && r.Addr == 0x000 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Fatal("dirty eviction must produce a writeback of the victim line")
	}
	if c.Contains(0x000) {
		t.Fatal("victim still resident")
	}
	if !c.Contains(0x080) || !c.Contains(0x040) {
		t.Fatal("expected lines not resident")
	}
}

func TestWriteThroughSendsStores(t *testing.T) {
	cfg := testConfig()
	cfg.WriteThrough = true
	cfg.WriteBack = false
	c := New(cfg, nil)
	c.Access(0, 0x100, mem.Read, nil)
	drain(c, 1)
	if res := c.Access(2, 0x100, mem.Write, nil); res != Hit {
		t.Fatalf("write hit = %v", res)
	}
	if c.Out.Len() != 1 || c.Out.Peek().Kind != mem.Write {
		t.Fatal("write-through hit must forward the store downstream")
	}
}

func TestWriteNoAllocateBypass(t *testing.T) {
	cfg := testConfig()
	cfg.Allocate = false
	cfg.WriteThrough = true
	cfg.WriteBack = false
	c := New(cfg, nil)
	if res := c.Access(0, 0x300, mem.Write, nil); res != Hit {
		t.Fatalf("store miss with no-allocate = %v, want immediate retire", res)
	}
	if c.Contains(0x300) {
		t.Fatal("no-allocate store must not install a line")
	}
	if c.Out.Len() != 1 {
		t.Fatal("store must be forwarded")
	}
}

func TestFlushWritesBackAllDirty(t *testing.T) {
	c := New(testConfig(), nil)
	c.Access(0, 0x000, mem.Write, nil)
	c.Access(0, 0x400, mem.Write, nil)
	drain(c, 1)
	c.Flush(2)
	wbs := 0
	for {
		r := c.Out.Pop()
		if r == nil {
			break
		}
		if r.Kind == mem.Write {
			wbs++
		}
	}
	if wbs != 2 {
		t.Fatalf("flush writebacks = %d, want 2", wbs)
	}
	if c.Contains(0x000) || c.Contains(0x400) {
		t.Fatal("flush must invalidate lines")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 128 // 1 set x 2 ways
	c := New(cfg, nil)
	c.Access(0, 0x000, mem.Read, nil)
	c.Access(1, 0x040, mem.Read, nil)
	drain(c, 2)
	c.Access(3, 0x000, mem.Read, nil) // make 0x40 the LRU
	c.Access(4, 0x080, mem.Read, nil)
	drain(c, 5)
	if !c.Contains(0x000) {
		t.Fatal("MRU line was evicted")
	}
	if c.Contains(0x040) {
		t.Fatal("LRU line was retained")
	}
}

// Property: hit/miss classification matches a reference simulation of an
// LRU set-associative cache over a random access stream.
func TestAgainstReferenceModel(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 512
	cfg.MSHRs = 64
	c := New(cfg, nil)

	type refLine struct {
		tag uint64
		lru uint64
	}
	sets := cfg.Sets()
	ref := make([][]refLine, sets)

	rng := rand.New(rand.NewSource(42))
	for cyc := uint64(0); cyc < 3000; cyc++ {
		addr := uint64(rng.Intn(32)) * 64 // 32 distinct lines
		la := addr &^ 63
		si := int((la / 64) % uint64(sets))

		// Reference lookup.
		refHit := false
		for i := range ref[si] {
			if ref[si][i].tag == la {
				refHit = true
				ref[si][i].lru = cyc
			}
		}

		res := c.Access(cyc, addr, mem.Read, nil)
		if res == Blocked {
			t.Fatalf("cycle %d: unexpected block", cyc)
		}
		got := res == Hit
		if got != refHit {
			t.Fatalf("cycle %d addr %#x: model %v, reference hit=%v", cyc, addr, res, refHit)
		}
		if !refHit {
			// Install in reference (LRU victim), mirroring immediate fill.
			if len(ref[si]) < cfg.Ways {
				ref[si] = append(ref[si], refLine{tag: la, lru: cyc})
			} else {
				v := 0
				for i := range ref[si] {
					if ref[si][i].lru < ref[si][v].lru {
						v = i
					}
				}
				ref[si][v] = refLine{tag: la, lru: cyc}
			}
		}
		drain(c, cyc) // ideal next level: fills complete same cycle
	}
}

func TestStatsRegistry(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(testConfig(), reg)
	c.Access(0, 0, mem.Read, nil)
	drain(c, 1)
	c.Access(2, 0, mem.Read, nil)
	if reg.Value("l1.hits") != 1 || reg.Value("l1.misses") != 1 {
		t.Fatalf("registry hits=%d misses=%d", reg.Value("l1.hits"), reg.Value("l1.misses"))
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", c.MissRate())
	}
}

// Regression: install must scan the whole set for an already-resident
// copy of the line before picking a victim. The old code stopped the
// tag check at the first invalid way, so a set shaped
// [other, invalid, la] installed la a second time.
func TestInstallScansFullSetBeforeVictim(t *testing.T) {
	cfg := testConfig()
	cfg.SizeBytes = 192 // 1 set x 3 ways
	cfg.Ways = 3
	c := New(cfg, nil)

	// Shape the set by hand: way 0 holds another line, way 1 is
	// invalid, way 2 already holds the line being installed.
	c.tags[0], c.lru[0] = 0x000|1, 1
	c.tags[2], c.lru[2], c.dirty[2] = 0x0C0|1, 2, true

	c.install(5, 0x0C0)

	copies := 0
	for _, tag := range c.tags {
		if tag == 0x0C0|1 {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("line 0x0C0 resident in %d ways, want 1", copies)
	}
	if c.tags[1] != 0 {
		t.Fatal("install filled an invalid way for an already-resident line")
	}
	if !c.dirty[2] {
		t.Fatal("re-install clobbered the resident copy's dirty bit")
	}
	if c.lru[2] != 5 {
		t.Fatalf("resident copy LRU = %d, want refreshed to 5", c.lru[2])
	}
	if c.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0 (nothing was displaced)", c.Evictions())
	}
}

// Regression: draining pendingWB with pendingWB[1:] kept the popped
// requests reachable through the backing array. Drained slots must be
// nilled and the buffer released once empty.
func TestPendingWBDrainReleasesRequests(t *testing.T) {
	c := New(testConfig(), nil)
	c.Access(0, 0x000, mem.Write, nil)
	c.Access(0, 0x040, mem.Write, nil)
	drain(c, 1)

	// Plug the output port, then flush: both dirty writebacks must
	// buffer in pendingWB rather than drop.
	for c.Out.Push(&mem.Request{Addr: 0xF000, Kind: mem.Read}) {
	}
	c.Flush(2)
	if len(c.pendingWB) != 2 {
		t.Fatalf("pendingWB = %d, want 2", len(c.pendingWB))
	}
	if c.Writebacks() != 2 {
		t.Fatalf("writebacks = %d, want 2", c.Writebacks())
	}
	backing := c.pendingWB[:2:2]

	// Free one slot: exactly one buffered writeback drains, and its
	// slot in the old backing array is released.
	c.Out.Pop()
	c.Tick(3)
	if len(c.pendingWB) != 1 {
		t.Fatalf("pendingWB after partial drain = %d, want 1", len(c.pendingWB))
	}
	if backing[0] != nil {
		t.Fatal("drained writeback still referenced by the old backing array")
	}

	// Drain the rest: the buffer must be released entirely.
	for c.Out.Pop() != nil {
	}
	c.Tick(4)
	if c.pendingWB != nil {
		t.Fatalf("pendingWB not released after full drain, len=%d", len(c.pendingWB))
	}
}

// Regression: a new miss that cannot place its fill request (output
// port full) must report Blocked without leaking an MSHR or an
// inflight entry, and the retry must succeed once the port drains.
func TestMissBlockedOnFullOutputPort(t *testing.T) {
	c := New(testConfig(), nil)
	for c.Out.Push(&mem.Request{Addr: 0xF000, Kind: mem.Read}) {
	}
	if res := c.Access(0, 0x100, mem.Read, "w"); res != Blocked {
		t.Fatalf("miss with full output port = %v, want blocked", res)
	}
	if c.PendingMisses() != 0 || c.fills != nil {
		t.Fatalf("blocked miss leaked state: mshrs=%d inflight=%v",
			c.PendingMisses(), c.fills != nil)
	}
	for c.Out.Pop() != nil {
	}
	if res := c.Access(1, 0x100, mem.Read, "w"); res != Miss {
		t.Fatalf("retry after port drained = %v, want miss", res)
	}
	drain(c, 2)
	if !c.Contains(0x100) {
		t.Fatal("line not installed after retried miss")
	}
}

// NextWake must report "actionable now" whenever Tick would do work,
// and NeverWake only when fully quiescent.
func TestCacheNextWake(t *testing.T) {
	c := New(testConfig(), nil)
	if w := c.NextWake(7); w != mem.NeverWake {
		t.Fatalf("idle cache NextWake = %d, want NeverWake", w)
	}
	c.Access(0, 0x100, mem.Read, nil)
	if w := c.NextWake(0); w != 0 {
		t.Fatalf("cache with queued fill NextWake = %d, want 0", w)
	}
	r := c.Out.Pop()
	if w := c.NextWake(1); w != mem.NeverWake {
		t.Fatalf("fill in flight downstream: NextWake = %d, want NeverWake (downstream covers it)", w)
	}
	r.Complete(2)
	if w := c.NextWake(3); w != 3 {
		t.Fatalf("completed fill awaiting install: NextWake = %d, want 3", w)
	}
	c.Tick(3)
	if w := c.NextWake(4); w != mem.NeverWake {
		t.Fatalf("quiescent after install: NextWake = %d, want NeverWake", w)
	}
	if !c.Quiet() {
		t.Fatal("cache not Quiet after install")
	}
}

// TestDoneFillCounterScanAgreement pins the O(1) done-fill counter to
// the O(n) inflight scan under randomized fill traffic: random misses,
// fills completing after random delays (several can pile up between
// installs), write-through stores, and irregular tick spacing. After
// every completion and every tick, the counter must agree with the
// scan and NextWake's now/never answer must match the reference.
func TestDoneFillCounterScanAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(testConfig(), nil)

	type pendingFill struct {
		req *mem.Request
		due uint64
	}
	var fills []pendingFill

	check := func(cycle uint64, when string) {
		t.Helper()
		if msg := c.AuditDoneFills(); msg != "" {
			t.Fatalf("cycle %d (%s): %s", cycle, when, msg)
		}
		wantNow := len(c.pendingWB) > 0 || c.Out.Len() > 0 || c.scanWake()
		gotNow := c.NextWake(cycle) == cycle
		if gotNow != wantNow {
			t.Fatalf("cycle %d (%s): NextWake now=%v, reference scan says %v",
				cycle, when, gotNow, wantNow)
		}
	}

	for cycle := uint64(0); cycle < 4000; cycle++ {
		// Random accesses: mostly reads, some writes, clustered lines so
		// hits, merges, evictions, and MSHR exhaustion all occur.
		for i := rng.Intn(3); i > 0; i-- {
			addr := uint64(rng.Intn(96)) * 64
			kind := mem.Read
			if rng.Intn(4) == 0 {
				kind = mem.Write
			}
			c.Access(cycle, addr, kind, nil)
		}
		// Downstream: accept new requests; fills complete after a random
		// delay, writebacks complete immediately (no Tag, no watcher).
		for {
			r := c.Out.Pop()
			if r == nil {
				break
			}
			if r.Kind == mem.Read {
				fills = append(fills, pendingFill{r, cycle + 1 + uint64(rng.Intn(25))})
			} else {
				r.Complete(cycle)
			}
		}
		kept := fills[:0]
		for _, f := range fills {
			if f.due <= cycle {
				f.req.Complete(cycle)
				check(cycle, "after complete")
			} else {
				kept = append(kept, f)
			}
		}
		fills = kept
		// Irregular ticking lets several done fills accumulate before an
		// install pass drains the counter in one burst.
		if rng.Intn(3) > 0 {
			c.Tick(cycle)
			check(cycle, "after tick")
		}
		check(cycle, "end of cycle")
	}
}
