// Package cache implements the set-associative caches used across the
// SoC model: the GPU's per-core L1I/L1D/L1T/L1Z/L1C caches, the GPU L2,
// and the CPU L1/L2 caches (paper Table 2).
//
// Timing and function are decoupled, the usual simulator arrangement:
// data always lives in the functional mem.Memory; the cache tracks only
// tags, state and in-flight misses, and produces the fill/writeback
// traffic that the interconnect and DRAM models time.
package cache

import (
	"fmt"
	"math/bits"

	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/stats"
)

// Config describes one cache.
type Config struct {
	Name         string
	SizeBytes    int
	LineBytes    int
	Ways         int
	HitLatency   uint64 // cycles, applied by the requester
	MSHRs        int    // distinct outstanding miss lines
	MSHRTargets  int    // merged waiters per miss line
	WriteThrough bool   // stores propagate downstream immediately
	WriteBack    bool   // dirty lines written back on eviction
	Allocate     bool   // allocate a line on store miss
	Client       mem.Client
	ClientID     int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	s := c.SizeBytes / (c.LineBytes * c.Ways)
	if s < 1 {
		s = 1
	}
	return s
}

// Result of a cache access attempt.
type Result int

// Access results.
const (
	// Hit: data available after HitLatency cycles.
	Hit Result = iota
	// Miss: an MSHR was allocated (or merged); the waiter will be
	// handed back through the OnReady callback when the fill returns.
	Miss
	// Blocked: no MSHR/queue space; the requester must retry (see
	// Room).
	Blocked
)

// mshr tracks one outstanding miss line: its fill request, the waiters
// merged into it, and its place in the two lists that find it — the
// chain of its set (lookup by line address) and the issue-order list
// of fills (install order). The fill request carries its mshr in Tag,
// so neither completion nor install looks anything up.
type mshr struct {
	c        *Cache
	lineAddr uint64
	set      int
	req      *mem.Request
	waiters  []any
	isWrite  bool  // at least one merged store (line fills dirty)
	chain    *mshr // next MSHR of the same set
	next     *mshr // next fill in issue order
}

// RequestDone implements mem.DoneWatcher: downstream completion of the
// fill (DRAM retire, an L2 hit event, an L2 fill install handing
// waiters back) lands here. It arrives from downstream, outside any
// call the cache's owner makes, so it also bumps the owner's fill
// counter (CountFills).
func (m *mshr) RequestDone(*mem.Request) {
	c := m.c
	c.doneFills++
	if c.fillCount != nil {
		*c.fillCount++
	}
}

// Cache is a single cache instance. Not safe for concurrent use.
type Cache struct {
	cfg Config

	// Tag state is flat, way-major within a set: tags[set*Ways+way]
	// holds lineAddr|1 for a valid line (line addresses have their low
	// bits clear) and 0 for an invalid one, so a lookup is one pass
	// over Ways contiguous words; lru and dirty sit beside it.
	tags      []uint64
	lru       []uint64 // last-use cycle
	dirty     []bool
	lineShift uint
	lineMask  uint64 // LineBytes-1
	sets      uint64

	// setMSHR heads each set's chain of live MSHRs; fills/fillEnd is
	// the issue-order list of all of them (one fill per MSHR).
	setMSHR   []*mshr
	fills     *mshr
	fillEnd   **mshr
	live      int
	freeMSHRs []*mshr
	reqs      mem.Pool

	// Out carries fill reads and writebacks toward the next level.
	Out *mem.Queue
	// doneFills counts fills whose request has completed but whose line
	// has not yet been installed by Tick. Incremented at completion,
	// decremented as Tick installs — so NextWake answers "any fill ready
	// to install?" in O(1) and Tick knows how many to look for.
	doneFills int64
	// fillCount, when wired by CountFills, is bumped at every fill
	// completion.
	fillCount *uint64
	// pendingWB buffers writebacks when Out is full.
	pendingWB []*mem.Request
	// room counts installs, Room's share beside Out's pops.
	room uint64

	// OnReady is invoked once per waiter when its miss data returns.
	OnReady func(waiter any, cycle uint64)

	// trace, when armed via SetTracer, receives miss/evict instants and
	// fill spans on traceTrack (e.g. "core0_0.l1d", "l2").
	trace      *emtrace.Tracer
	traceTrack string

	accesses, hits, misses, evictions, writebacks *stats.Counter
	readHits, readMisses                          *stats.Counter
}

// New creates a cache. reg may be nil (stats are then kept on a private
// registry). LineBytes must be a power of two.
func New(cfg Config, reg *stats.Registry) *Cache {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 128
	}
	if cfg.Ways == 0 {
		cfg.Ways = 4
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 32
	}
	if cfg.MSHRTargets == 0 {
		cfg.MSHRTargets = 8
	}
	if cfg.LineBytes < 2 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d is not a power of two", cfg.Name, cfg.LineBytes))
	}
	s := reg.Scope(cfg.Name)
	sets := cfg.Sets()
	c := &Cache{
		cfg:        cfg,
		tags:       make([]uint64, sets*cfg.Ways),
		lru:        make([]uint64, sets*cfg.Ways),
		dirty:      make([]bool, sets*cfg.Ways),
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		lineMask:   uint64(cfg.LineBytes - 1),
		sets:       uint64(sets),
		setMSHR:    make([]*mshr, sets),
		Out:        mem.NewQueue(64),
		accesses:   s.Counter("accesses"),
		hits:       s.Counter("hits"),
		misses:     s.Counter("misses"),
		evictions:  s.Counter("evictions"),
		writebacks: s.Counter("writebacks"),
		readHits:   s.Counter("read_hits"),
		readMisses: s.Counter("read_misses"),
	}
	c.fillEnd = &c.fills
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetTracer arms event tracing on this cache. track names the trace
// lane (precomputed once here so the hot paths never build strings).
func (c *Cache) SetTracer(t *emtrace.Tracer, track string) {
	c.trace = t
	c.traceTrack = track
}

// CountFills makes every fill completion of this cache add one to *n.
// Between its owner's calls into the cache, a completion is the only
// thing that can change what NextWake answers, so an owner that found
// the cache quiet knows it still is while *n stands.
func (c *Cache) CountFills(n *uint64) { c.fillCount = n }

// LineAddr masks addr down to its line address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ c.lineMask
}

// setIndex keeps the divide for the one set count that is not a power
// of two (Case Study I's 24-way L1T has 21 sets).
func (c *Cache) setIndex(lineAddr uint64) int {
	n := lineAddr >> c.lineShift
	if c.sets&(c.sets-1) == 0 {
		return int(n & (c.sets - 1))
	}
	return int(n % c.sets)
}

// find returns the tag-array index of lineAddr in set, or -1.
func (c *Cache) find(set int, lineAddr uint64) int {
	base := set * c.cfg.Ways
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == lineAddr|1 {
			return base + i
		}
	}
	return -1
}

// request builds one line-sized request of this cache.
func (c *Cache) request(la uint64, kind mem.Kind, cycle uint64) mem.Request {
	return mem.Request{
		Addr: la, Size: uint32(c.cfg.LineBytes), Kind: kind,
		Client: c.cfg.Client, ClientID: c.cfg.ClientID, IssuedAt: cycle,
	}
}

// Access attempts a read or write of addr at the given cycle. waiter is
// requester-private state returned through OnReady when a miss completes;
// it may be nil for fire-and-forget stores.
func (c *Cache) Access(cycle uint64, addr uint64, kind mem.Kind, waiter any) Result {
	c.accesses.Inc()
	la := c.LineAddr(addr)
	set := c.setIndex(la)

	if i := c.find(set, la); i >= 0 {
		c.lru[i] = cycle
		if kind == mem.Write {
			if c.cfg.WriteThrough {
				if !c.enqueueWrite(cycle, la) {
					return Blocked
				}
			} else {
				c.dirty[i] = true
			}
		}
		c.hits.Inc()
		if kind == mem.Read {
			c.readHits.Inc()
		}
		return Hit
	}

	// Write-no-allocate stores bypass the cache entirely.
	if kind == mem.Write && !c.cfg.Allocate {
		if !c.enqueueWrite(cycle, la) {
			return Blocked
		}
		c.misses.Inc()
		return Hit // store retires immediately from the core's view
	}

	// Merge into an existing MSHR if the line is already in flight.
	m := c.setMSHR[set]
	for m != nil && m.lineAddr != la {
		m = m.chain
	}
	if m != nil {
		if len(m.waiters) >= c.cfg.MSHRTargets {
			return Blocked
		}
		if kind == mem.Write {
			m.isWrite = true
		}
	} else {
		// New miss: needs an MSHR and room for the fill request, asked
		// for before anything is built (a refused push would otherwise
		// build and drop a request every retry cycle).
		if c.live >= c.cfg.MSHRs || c.Out.Full() {
			return Blocked
		}
		if n := len(c.freeMSHRs); n > 0 {
			m, c.freeMSHRs = c.freeMSHRs[n-1], c.freeMSHRs[:n-1]
		} else {
			m = &mshr{c: c}
		}
		m.lineAddr, m.set, m.isWrite = la, set, kind == mem.Write
		m.req = c.reqs.New(c.request(la, mem.Read, cycle))
		m.req.Tag = m
		c.Out.MustPush(m.req)
		m.chain, c.setMSHR[set] = c.setMSHR[set], m
		*c.fillEnd, c.fillEnd = m, &m.next
		c.live++
	}
	if waiter != nil {
		m.waiters = append(m.waiters, waiter)
	}
	c.misses.Inc()
	if kind == mem.Read {
		c.readMisses.Inc()
	}
	c.trace.Instant1(emtrace.SrcCache, c.traceTrack, "miss", cycle,
		emtrace.Arg{Key: "addr", Val: int64(la)})
	return Miss
}

func (c *Cache) enqueueWrite(cycle uint64, la uint64) bool {
	if c.Out.Full() {
		return false
	}
	return c.Out.Push(c.reqs.Fire(c.request(la, mem.Write, cycle)))
}

// Room is the cache's room counter. It moves on every event that can
// turn a Blocked access into an accepted one: a fill installed (its
// MSHR and merge slots freed, its line made resident), a request taken
// off Out. Nothing else frees (an accepted access only consumes), so an
// access refused at one value is refused again, with the same effects,
// until it moves.
func (c *Cache) Room() uint64 { return c.room + c.Out.Pops() }

// Refused charges n accesses that Room says would be Blocked again, one
// a cycle up to cycle, without performing them: it has exactly the
// effects of those Blocked Accesses, which count the accesses and, for
// a write-through store hit refused for want of Out room, refresh the
// line's LRU stamp (the last of them wins).
func (c *Cache) Refused(cycle, addr uint64, kind mem.Kind, n uint64) {
	c.accesses.Add(int64(n))
	if kind == mem.Write && c.cfg.WriteThrough {
		c.touch(cycle, addr)
	}
}

// RefusedAll is Refused for each of rs, counted at once.
func (c *Cache) RefusedAll(cycle uint64, rs []*mem.Request, n uint64) {
	c.accesses.Add(int64(len(rs)) * int64(n))
	for _, r := range rs {
		if c.cfg.WriteThrough && r.Kind == mem.Write {
			c.touch(cycle, r.Addr)
		}
	}
}

// touch refreshes the LRU stamp of addr's line, if it is resident.
func (c *Cache) touch(cycle, addr uint64) {
	la := c.LineAddr(addr)
	if i := c.find(c.setIndex(la), la); i >= 0 {
		c.lru[i] = cycle
	}
}

// Tick retires completed fills, installs their lines (possibly evicting
// and writing back victims), releases MSHRs and notifies waiters. It also
// drains any writebacks buffered while Out was full.
//
// Order is the contract: fills install in issue order, waiters are
// notified in merge order.
func (c *Cache) Tick(cycle uint64) {
	// Nothing to drain and no fill to install: the common case by far,
	// answered without walking the fills (see doneFills).
	done := c.doneFills
	if len(c.pendingWB) == 0 && done == 0 {
		return
	}
	// Drain buffered writebacks first so evictions below have room.
	// Drained slots are nilled so the backing array doesn't retain
	// popped requests, and the array is released once empty.
	n := 0
	for n < len(c.pendingWB) && c.Out.Push(c.pendingWB[n]) {
		c.pendingWB[n] = nil
		n++
	}
	if n > 0 {
		c.pendingWB = c.pendingWB[n:]
		if len(c.pendingWB) == 0 {
			c.pendingWB = nil
		}
	}

	// Walk the fills in issue order until every completed one has been
	// found; the rest of the list is not looked at.
	for link := &c.fills; done > 0 && *link != nil; {
		m := *link
		if !m.req.Done {
			link = &m.next
			continue
		}
		done--
		c.doneFills--
		if *link = m.next; m.next == nil {
			c.fillEnd = link
		}
		c.install(cycle, m.lineAddr)
		c.room++
		c.trace.Span1(emtrace.SrcCache, c.traceTrack, "fill", m.req.IssuedAt, cycle,
			emtrace.Arg{Key: "addr", Val: int64(m.lineAddr)})
		chain := &c.setMSHR[m.set]
		for *chain != m {
			chain = &(*chain).chain
		}
		*chain = m.chain
		c.live--
		if c.OnReady != nil {
			for _, w := range m.waiters {
				c.OnReady(w, cycle)
			}
		}
		if m.isWrite && !c.cfg.WriteThrough {
			// write-through caches hold no dirty state; the store
			// traffic already went downstream.
			if i := c.find(m.set, m.lineAddr); i >= 0 {
				c.dirty[i] = true
			}
		}
		// A pooled mshr pins no requester state, and the fill request
		// goes back to this cache's pool: its issuer, after Done.
		c.reqs.Put(m.req)
		clear(m.waiters)
		m.waiters, m.req, m.chain, m.next = m.waiters[:0], nil, nil, nil
		c.freeMSHRs = append(c.freeMSHRs, m)
	}
}

// install places lineAddr into its set, evicting the LRU way: the first
// invalid way, else the lowest-index way with the oldest use.
func (c *Cache) install(cycle uint64, la uint64) {
	set := c.setIndex(la)
	// The line may already be resident in ANY way (e.g. refetched), so
	// the full set must be scanned for the tag before a victim is
	// chosen: stopping the tag check at the first invalid way would
	// miss a copy in a later way and install the same tag twice.
	if i := c.find(set, la); i >= 0 {
		c.lru[i] = cycle
		return // already present
	}
	base := set * c.cfg.Ways
	v := base
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.tags[i] == 0 {
			v = i
			break
		}
		if c.lru[i] < c.lru[v] {
			v = i
		}
	}
	if c.tags[v] != 0 {
		c.evictions.Inc()
		if c.trace.Active(cycle) {
			dirty := int64(0)
			if c.dirty[v] {
				dirty = 1
			}
			c.trace.Instant1(emtrace.SrcCache, c.traceTrack, "evict", cycle,
				emtrace.Arg{Key: "dirty", Val: dirty})
		}
		if c.dirty[v] && c.cfg.WriteBack {
			c.writeBack(cycle, c.tags[v]&^1)
		}
	}
	c.tags[v], c.dirty[v], c.lru[v] = la|1, false, cycle
}

// writeBack sends a dirty line downstream, buffering it when Out is
// full (an eviction cannot be refused).
func (c *Cache) writeBack(cycle uint64, la uint64) {
	c.writebacks.Inc()
	wb := c.reqs.Fire(c.request(la, mem.Write, cycle))
	if !c.Out.Push(wb) {
		c.pendingWB = append(c.pendingWB, wb)
	}
}

// Contains reports whether the line holding addr is resident, without
// touching it: a CPU core asks it of the fetches it plans.
func (c *Cache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	return c.find(c.setIndex(la), la) >= 0
}

// PendingMisses reports the number of live MSHRs.
func (c *Cache) PendingMisses() int { return c.live }

// NextWake returns the earliest future cycle at which the cache's
// state can change on its own: now if work is already actionable
// (buffered writebacks, queued output, a completed fill to install),
// mem.NeverWake when fully quiescent. Fills still in flight downstream
// are covered by the component holding them (NoC/DRAM), whose own
// NextWake bounds their completion. O(1): completed fills are counted
// by RequestDone at completion time rather than found by scanning
// inflight — NextWake runs in every core's per-cycle quiet gate, where
// an MSHR scan is the dominant cost.
func (c *Cache) NextWake(cycle uint64) uint64 {
	if len(c.pendingWB) > 0 || c.Out.Len() > 0 || c.doneFills > 0 {
		return cycle
	}
	return mem.NeverWake
}

// AuditDoneFills compares the done-fill counter against an inflight
// scan, returning a non-empty description on disagreement. Used by the
// guard's done-fill audit: a lost RequestDone notification would park the
// cache's owner past a ready fill.
func (c *Cache) AuditDoneFills() string {
	n := int64(0)
	for m := c.fills; m != nil; m = m.next {
		if m.req.Done {
			n++
		}
	}
	if got := c.doneFills; got != n {
		return fmt.Sprintf("%s: doneFills counter %d, inflight scan %d", c.cfg.Name, got, n)
	}
	return ""
}
