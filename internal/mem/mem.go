// Package mem provides the pieces of the memory system shared by every
// agent in the SoC: the functional backing store (a sparse, page-granular
// physical memory), the timing request type that flows between caches,
// interconnects and DRAM, and small queue primitives used to plumb
// requests between cycle-stepped components.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// PageSize is the granularity of the sparse backing store.
const PageSize = 4096

// The page directory is a six-level radix tree over the 52-bit page
// index of a 64-bit address, 9 bits per level: a lookup is six indexed
// loads and never hashes, every node is 4 KB, a leaf covers 2 MB, and
// an address near 2^63 costs five interior nodes and a page, not memory
// in proportion to the address.
const (
	fanBits = 9
	fanout  = 1 << fanBits
	fanMask = fanout - 1
)

type (
	page = [PageSize]byte
	// node is one directory node; level 0 (a leaf) holds pages.
	node[T any] [fanout]atomic.Pointer[T]
	leaf        = node[page]
	node1       = node[leaf]
	node2       = node[node1]
	node3       = node[node2]
	node4       = node[node3]
	// root is one generation of the directory; Reset swaps it whole.
	root struct {
		kids  node[node4]
		pages atomic.Int64 // materialized pages
	}
)

// at loads the slot of page idx in n, a node at level; a nil n holds
// nothing.
func (n *node[T]) at(idx uint64, level int) *T {
	if n == nil {
		return nil
	}
	return n[idx>>(level*fanBits)&fanMask].Load()
}

// child returns the node in the slot of page idx in n, a node at level,
// materializing it if absent.
func (n *node[T]) child(idx uint64, level int) *T {
	slot := &n[idx>>(level*fanBits)&fanMask]
	if c := slot.Load(); c != nil {
		return c
	}
	c := new(T)
	if slot.CompareAndSwap(nil, c) {
		return c
	}
	return slot.Load()
}

// each calls fn on every child of n in slot order, with prefix extended
// by the slot.
func each[T any](n *node[T], prefix uint64, fn func(idx uint64, c *T)) {
	for i := range n {
		if c := n[i].Load(); c != nil {
			fn(prefix<<fanBits|uint64(i), c)
		}
	}
}

// Memory is a sparse functional model of physical memory. Reads of pages
// never written return zeroes, like freshly mapped DRAM from the
// simulator's point of view, and do not materialize the page. Memory
// carries data only; all timing lives in the cache/DRAM models.
//
// The page directory is safe for concurrent use and lock-free: every
// slot is an atomic pointer that goes from nil to its final value
// exactly once, by compare-and-swap, so a reader sees either nothing
// (the page reads as zeroes) or a fully zeroed node or page; the loser
// of a racing insert adopts the winner's. Page *contents* carry no
// locks: a Memory belongs to one system, which ticks on one goroutine.
type Memory struct {
	dir atomic.Pointer[root]
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	m := &Memory{}
	m.dir.Store(new(root))
	return m
}

// Read copies len(p) bytes starting at addr into p.
func (m *Memory) Read(addr uint64, p []byte) {
	for len(p) > 0 {
		page, off := addr/PageSize, addr%PageSize
		n := copy(p, m.pageFor(page, false)[off:])
		p = p[n:]
		addr += uint64(n)
	}
}

// Write copies p into memory starting at addr.
func (m *Memory) Write(addr uint64, p []byte) {
	for len(p) > 0 {
		page, off := addr/PageSize, addr%PageSize
		n := copy(m.pageFor(page, true)[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// zeroPage backs reads of never-written pages. It is never written to,
// so sharing one instance across goroutines is safe.
var zeroPage page

func (m *Memory) pageFor(idx uint64, create bool) *page {
	r := m.dir.Load()
	if p := r.kids.at(idx, 5).at(idx, 4).at(idx, 3).at(idx, 2).at(idx, 1).at(idx, 0); p != nil {
		return p
	}
	if !create {
		return &zeroPage
	}
	p, slot := new(page), &r.kids.child(idx, 5).child(idx, 4).child(idx, 3).child(idx, 2).child(idx, 1)[idx&fanMask]
	if slot.CompareAndSwap(nil, p) {
		r.pages.Add(1)
		return p
	}
	return slot.Load()
}

// Reset drops every materialized page, returning the memory to its
// freshly constructed all-zeroes state. Checkpoint restore uses it to
// reconcile the page set: without it, pages the target has but the
// snapshot lacks would survive the restore as stale state. Not safe
// concurrently with a running simulation.
func (m *Memory) Reset() { m.dir.Store(new(root)) }

// PageCount reports how many pages have been materialized (for
// checkpoint sizing and tests).
func (m *Memory) PageCount() int { return int(m.dir.Load().pages.Load()) }

// eachPage visits every materialized page in ascending index order.
func (m *Memory) eachPage(fn func(idx uint64, p *page)) {
	each(&m.dir.Load().kids, 0, func(i uint64, n *node4) {
		each(n, i, func(i uint64, n *node3) {
			each(n, i, func(i uint64, n *node2) {
				each(n, i, func(i uint64, n *node1) {
					each(n, i, func(i uint64, n *leaf) { each(n, i, fn) })
				})
			})
		})
	})
}

// SnapshotPages returns a deep copy of every materialized page, all
// backed by a single allocation — the checkpoint-per-frame sampled
// pass takes one of these per frame boundary, so snapshot cost is a
// single bulk alloc plus page copies rather than one allocation per
// page.
func (m *Memory) SnapshotPages() map[uint64][]byte {
	n := m.PageCount()
	out := make(map[uint64][]byte, n)
	buf := make([]byte, 0, n*PageSize)
	m.eachPage(func(idx uint64, p *page) {
		buf = append(buf, p[:]...)
		out[idx] = buf[len(buf)-PageSize : len(buf) : len(buf)]
	})
	return out
}

// ReadU32 reads a little-endian uint32.
func (m *Memory) ReadU32(addr uint64) uint32 {
	if off := addr % PageSize; off <= PageSize-4 {
		return binary.LittleEndian.Uint32(m.pageFor(addr/PageSize, false)[off:])
	}
	var b [4]byte // page-straddling access; rare
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian uint32.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	if off := addr % PageSize; off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.pageFor(addr/PageSize, true)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// ReadF32 reads a little-endian float32.
func (m *Memory) ReadF32(addr uint64) float32 {
	return math.Float32frombits(m.ReadU32(addr))
}

// WriteF32 writes a little-endian float32.
func (m *Memory) WriteF32(addr uint64, v float32) {
	m.WriteU32(addr, math.Float32bits(v))
}

// Client identifies the class of traffic source issuing a request; the
// DASH and HMC models schedule by it.
type Client uint8

// Traffic source classes.
const (
	ClientCPU Client = iota
	ClientGPU
	ClientDisplay
	ClientDMA
)

// String implements fmt.Stringer.
func (c Client) String() string {
	switch c {
	case ClientCPU:
		return "cpu"
	case ClientGPU:
		return "gpu"
	case ClientDisplay:
		return "display"
	case ClientDMA:
		return "dma"
	}
	return fmt.Sprintf("client(%d)", uint8(c))
}

// IsIP reports whether the client is an IP block (non-CPU) in the paper's
// terminology.
func (c Client) IsIP() bool { return c != ClientCPU }

// Kind is the request direction.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
)

// Request is a timing-level memory request. Requests are created by an
// agent (cache miss, DMA engine, CPU load) and flow through queues to the
// DRAM model, which marks them Done. Data movement is functional and
// happens at the endpoints; Request carries no payload.
type Request struct {
	Addr     uint64
	Size     uint32
	Kind     Kind
	Client   Client
	ClientID int // per-class id: CPU core index, GPU unit, ...

	// Done is set by the memory system when the request retires;
	// DoneAt is the retirement cycle.
	Done   bool
	DoneAt uint64

	// IssuedAt is the cycle the requester handed the request to the
	// memory system (for latency stats).
	IssuedAt uint64

	// Tag is requester-private metadata (e.g. the cache MSHR a fill
	// belongs to). When it implements DoneWatcher, Complete notifies it.
	Tag any

	// released marks a request sitting on its issuer's free list (Pool).
	released bool
}

// Released reports whether the request is on a Pool's free list. Such a
// request must be unreachable from every queue, MSHR, flit and event;
// the guard audits check exactly that.
func (r *Request) Released() bool { return r.released }

// DoneWatcher is implemented by request issuers (carried in
// Request.Tag) that need a synchronous signal when their request
// completes — e.g. a cache counting completed-but-uninstalled fills so
// its NextWake stays O(1).
type DoneWatcher interface {
	RequestDone(r *Request)
}

// Complete marks the request done at the given cycle and notifies the
// issuer's DoneWatcher, if any. Idempotent: a request already done is
// left untouched, so no watcher is ever notified twice.
func (r *Request) Complete(cycle uint64) {
	if r.Done {
		return
	}
	r.Done = true
	r.DoneAt = cycle
	if w, ok := r.Tag.(DoneWatcher); ok {
		w.RequestDone(r)
	}
}

// NeverWake is the NextWake sentinel for a component that is fully
// quiescent: no queued work, no in-flight requests, no scheduled
// events — its state cannot change until new work arrives from
// outside. The tick loops treat it as "no wake deadline".
const NeverWake = ^uint64(0)
