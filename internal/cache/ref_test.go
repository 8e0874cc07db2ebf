package cache

import (
	"fmt"

	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/stats"
)

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use cycle
}

type refMSHR struct {
	lineAddr uint64
	waiters  []any
	isWrite  bool // at least one merged store (line fills dirty)
}

// refCache is the parent commit's cache.Cache, kept verbatim (Go map of
// MSHRs, [][]line tags, inflight slice rewritten per Tick, a request
// allocated per miss) as the reference model the flat, pooled cache is
// driven against in TestDifferentialAgainstParentCache.
type refCache struct {
	cfg  Config
	sets [][]line

	mshrs map[uint64]*refMSHR
	// freeMSHRs holds released mshr structs (with their waiters' backing
	// arrays, entries cleared) for the next miss.
	freeMSHRs []*refMSHR

	// Out carries fill reads and writebacks toward the next level.
	Out *mem.Queue
	// inflight are fill requests awaiting completion by downstream.
	inflight []*mem.Request
	// doneFills counts inflight entries whose request has completed but
	// whose line has not yet been installed by Tick. Incremented by
	// RequestDone, decremented as Tick installs — so NextWake answers "any
	// fill ready to install?" in O(1) instead of scanning inflight.
	doneFills int64
	// pendingWB buffers writebacks when Out is full.
	pendingWB []*mem.Request

	// OnReady is invoked once per waiter when its miss data returns.
	OnReady func(waiter any, cycle uint64)

	// trace, when armed via SetTracer, receives miss/evict instants and
	// fill spans on traceTrack (e.g. "core0_0.l1d", "l2").
	trace      *emtrace.Tracer
	traceTrack string

	accesses, hits, misses, evictions, writebacks *stats.Counter
	readHits, readMisses                          *stats.Counter
}

// newRef creates a reference cache. reg may be nil (stats are then kept on a private
// registry).
func newRef(cfg Config, reg *stats.Registry) *refCache {
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
	s := reg.Scope(cfg.Name)
	c := &refCache{
		cfg:        cfg,
		mshrs:      make(map[uint64]*refMSHR),
		Out:        mem.NewQueue(64),
		accesses:   s.Counter("accesses"),
		hits:       s.Counter("hits"),
		misses:     s.Counter("misses"),
		evictions:  s.Counter("evictions"),
		writebacks: s.Counter("writebacks"),
		readHits:   s.Counter("read_hits"),
		readMisses: s.Counter("read_misses"),
	}
	sets := cfg.Sets()
	c.sets = make([][]line, sets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

// Config returns the cache configuration.
func (c *refCache) Config() Config { return c.cfg }

// SetTracer arms event tracing on this cache. track names the trace
// lane (precomputed once here so the hot paths never build strings).
func (c *refCache) SetTracer(t *emtrace.Tracer, track string) {
	c.trace = t
	c.traceTrack = track
}

// LineAddr masks addr down to its line address.
func (c *refCache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

func (c *refCache) setIndex(lineAddr uint64) int {
	return int((lineAddr / uint64(c.cfg.LineBytes)) % uint64(len(c.sets)))
}

// Access attempts a read or write of addr at the given cycle. waiter is
// requester-private state returned through OnReady when a miss completes;
// it may be nil for fire-and-forget stores.
func (c *refCache) Access(cycle uint64, addr uint64, kind mem.Kind, waiter any) Result {
	c.accesses.Inc()
	la := c.LineAddr(addr)
	set := c.sets[c.setIndex(la)]

	// Tag lookup.
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = cycle
			if kind == mem.Write {
				if c.cfg.WriteThrough {
					if !c.enqueueWrite(cycle, la) {
						return Blocked
					}
				} else {
					set[i].dirty = true
				}
			}
			c.hits.Inc()
			if kind == mem.Read {
				c.readHits.Inc()
			}
			return Hit
		}
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
	if m, ok := c.mshrs[la]; ok {
		if len(m.waiters) >= c.cfg.MSHRTargets {
			return Blocked
		}
		if waiter != nil {
			m.waiters = append(m.waiters, waiter)
		}
		if kind == mem.Write {
			m.isWrite = true
		}
		c.misses.Inc()
		if kind == mem.Read {
			c.readMisses.Inc()
		}
		c.trace.Instant1(emtrace.SrcCache, c.traceTrack, "miss", cycle,
			emtrace.Arg{Key: "addr", Val: int64(la)})
		return Miss
	}

	// New miss: need an MSHR and room for the fill request.
	if len(c.mshrs) >= c.cfg.MSHRs {
		return Blocked
	}
	req := &mem.Request{
		Addr:     la,
		Size:     uint32(c.cfg.LineBytes),
		Kind:     mem.Read,
		Client:   c.cfg.Client,
		ClientID: c.cfg.ClientID,
		IssuedAt: cycle,
		Tag:      c,
	}
	if !c.Out.Push(req) {
		return Blocked // output port full: the requester retries
	}
	c.inflight = append(c.inflight, req)
	m := c.newMSHR()
	m.lineAddr, m.isWrite = la, kind == mem.Write
	if waiter != nil {
		m.waiters = append(m.waiters, waiter)
	}
	c.mshrs[la] = m
	c.misses.Inc()
	if kind == mem.Read {
		c.readMisses.Inc()
	}
	c.trace.Instant1(emtrace.SrcCache, c.traceTrack, "miss", cycle,
		emtrace.Arg{Key: "addr", Val: int64(la)})
	return Miss
}

func (c *refCache) newMSHR() *refMSHR {
	if n := len(c.freeMSHRs); n > 0 {
		m := c.freeMSHRs[n-1]
		c.freeMSHRs = c.freeMSHRs[:n-1]
		return m
	}
	return new(refMSHR)
}

func (c *refCache) enqueueWrite(cycle uint64, la uint64) bool {
	return c.Out.Push(&mem.Request{
		Addr:     la,
		Size:     uint32(c.cfg.LineBytes),
		Kind:     mem.Write,
		Client:   c.cfg.Client,
		ClientID: c.cfg.ClientID,
		IssuedAt: cycle,
	})
}

// Tick retires completed fills, installs their lines (possibly evicting
// and writing back victims), releases MSHRs and notifies waiters. It also
// drains any writebacks buffered while Out was full.
func (c *refCache) Tick(cycle uint64) {
	// Nothing to drain and no fill to install: the common case by far,
	// answered without walking inflight (see doneFills).
	if len(c.pendingWB) == 0 && c.doneFills == 0 {
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

	kept := c.inflight[:0]
	for _, req := range c.inflight {
		if !req.Done {
			kept = append(kept, req)
			continue
		}
		c.doneFills--
		c.install(cycle, req.Addr)
		c.trace.Span1(emtrace.SrcCache, c.traceTrack, "fill", req.IssuedAt, cycle,
			emtrace.Arg{Key: "addr", Val: int64(req.Addr)})
		if m, ok := c.mshrs[req.Addr]; ok {
			delete(c.mshrs, req.Addr)
			if c.OnReady != nil {
				for _, w := range m.waiters {
					c.OnReady(w, cycle)
				}
			}
			if m.isWrite {
				c.markDirty(req.Addr)
			}
			clear(m.waiters) // a pooled mshr pins no requester state
			m.waiters = m.waiters[:0]
			c.freeMSHRs = append(c.freeMSHRs, m)
		}
	}
	c.inflight = kept
}

func (c *refCache) markDirty(la uint64) {
	set := c.sets[c.setIndex(la)]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			if c.cfg.WriteThrough {
				// write-through caches hold no dirty state; the
				// store traffic already went downstream.
				return
			}
			set[i].dirty = true
			return
		}
	}
}

// install places lineAddr into its set, evicting the LRU way.
func (c *refCache) install(cycle uint64, la uint64) {
	set := c.sets[c.setIndex(la)]
	// The line may already be resident in ANY way (e.g. refetched), so
	// the full set must be scanned for the tag before a victim is
	// chosen: stopping the tag check at the first invalid way would
	// miss a copy in a later way and install the same tag twice.
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = cycle
			return // already present
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		c.evictions.Inc()
		if c.trace.Active(cycle) {
			dirty := int64(0)
			if v.dirty {
				dirty = 1
			}
			c.trace.Instant1(emtrace.SrcCache, c.traceTrack, "evict", cycle,
				emtrace.Arg{Key: "dirty", Val: dirty})
		}
		if v.dirty && c.cfg.WriteBack {
			c.writebacks.Inc()
			wb := &mem.Request{
				Addr:     v.tag,
				Size:     uint32(c.cfg.LineBytes),
				Kind:     mem.Write,
				Client:   c.cfg.Client,
				ClientID: c.cfg.ClientID,
				IssuedAt: cycle,
			}
			if !c.Out.Push(wb) {
				c.pendingWB = append(c.pendingWB, wb)
			}
		}
	}
	*v = line{tag: la, valid: true, dirty: false, lru: cycle}
}

// Contains reports whether the line holding addr is resident (test hook).
func (c *refCache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	for _, l := range c.sets[c.setIndex(la)] {
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

// PendingMisses reports the number of live MSHRs.
func (c *refCache) PendingMisses() int { return len(c.mshrs) }

// Quiet reports whether Tick would be a no-op and no queued output is
// waiting to drain: no buffered writebacks, no in-flight fills and an
// empty output port. Owners use it to gate per-cycle work.
func (c *refCache) Quiet() bool {
	return len(c.pendingWB) == 0 && len(c.inflight) == 0 && c.Out.Len() == 0
}

// NextWake returns the earliest future cycle at which the cache's
// state can change on its own: now if work is already actionable
// (buffered writebacks, queued output, a completed fill to install),
// mem.NeverWake when fully quiescent. Fills still in flight downstream
// are covered by the component holding them (NoC/DRAM), whose own
// NextWake bounds their completion. O(1): completed fills are counted
// by RequestDone at completion time rather than found by scanning
// inflight — NextWake runs in every core's per-cycle quiet gate, where
// an MSHR scan is the dominant cost.
func (c *refCache) NextWake(cycle uint64) uint64 {
	if len(c.pendingWB) > 0 || c.Out.Len() > 0 || c.doneFills > 0 {
		return cycle
	}
	return mem.NeverWake
}

// RequestDone implements mem.DoneWatcher: fill requests carry the
// issuing cache in Tag, so downstream completion (DRAM retire, an L2
// hit event, an L2 fill install handing waiters back) lands here.
func (c *refCache) RequestDone(*mem.Request) { c.doneFills++ }

// AuditDoneFills compares the done-fill counter against an inflight
// scan, returning a non-empty description on disagreement. Used by the
// guard's done-fill audit: a lost RequestDone notification would park the
// cache's owner past a ready fill.
func (c *refCache) AuditDoneFills() string {
	n := int64(0)
	for _, r := range c.inflight {
		if r.Done {
			n++
		}
	}
	if got := c.doneFills; got != n {
		return fmt.Sprintf("%s: doneFills counter %d, inflight scan %d", c.cfg.Name, got, n)
	}
	return ""
}
