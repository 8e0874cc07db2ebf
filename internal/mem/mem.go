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
	"sync"
	"sync/atomic"
)

// PageSize is the granularity of the sparse backing store.
const PageSize = 4096

// Memory is a sparse functional model of physical memory. Reads of pages
// never written return zeroes, like freshly mapped DRAM from the
// simulator's point of view. Memory carries data only; all timing lives
// in the cache/DRAM models.
//
// The page directory is safe for concurrent use: lookups read an
// immutable map snapshot through an atomic pointer, and materializing a
// new page copies the directory under a mutex (copy-on-insert). Page
// *contents* carry no locks — the parallel tick engine guarantees that
// two shards never write the same byte in the same phase (shard-owned
// address ranges; see DESIGN.md), which the race detector verifies,
// since distinct bytes of an array are distinct memory locations.
type Memory struct {
	pages atomic.Pointer[map[uint64]*[PageSize]byte]
	mu    sync.Mutex // serializes copy-on-insert of new pages
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	m := &Memory{}
	empty := make(map[uint64]*[PageSize]byte)
	m.pages.Store(&empty)
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
var zeroPage [PageSize]byte

func (m *Memory) pageFor(page uint64, create bool) *[PageSize]byte {
	p, ok := (*m.pages.Load())[page]
	if !ok {
		if !create {
			return &zeroPage
		}
		m.mu.Lock()
		old := *m.pages.Load()
		if p, ok = old[page]; !ok {
			next := make(map[uint64]*[PageSize]byte, len(old)+1)
			for k, v := range old {
				next[k] = v
			}
			p = new([PageSize]byte)
			next[page] = p
			m.pages.Store(&next)
		}
		m.mu.Unlock()
	}
	return p
}

// Reset drops every materialized page, returning the memory to its
// freshly constructed all-zeroes state. Checkpoint restore uses it to
// reconcile the page set: without it, pages the target has but the
// snapshot lacks would survive the restore as stale state. Not safe
// concurrently with a running simulation.
func (m *Memory) Reset() {
	m.mu.Lock()
	empty := make(map[uint64]*[PageSize]byte)
	m.pages.Store(&empty)
	m.mu.Unlock()
}

// PageCount reports how many pages have been materialized (for
// checkpoint sizing and tests).
func (m *Memory) PageCount() int { return len(*m.pages.Load()) }

// Pages returns the set of materialized page indices (unordered).
func (m *Memory) Pages() []uint64 {
	pages := *m.pages.Load()
	out := make([]uint64, 0, len(pages))
	for p := range pages {
		out = append(out, p)
	}
	return out
}

// SnapshotPages returns a deep copy of every materialized page, all
// backed by a single allocation — the checkpoint-per-frame sampled
// pass takes one of these per frame boundary, so snapshot cost is a
// single bulk alloc plus page copies rather than one allocation per
// page.
func (m *Memory) SnapshotPages() map[uint64][]byte {
	pages := *m.pages.Load()
	out := make(map[uint64][]byte, len(pages))
	buf := make([]byte, len(pages)*PageSize)
	i := 0
	for p, data := range pages {
		dst := buf[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
		copy(dst, data[:])
		out[p] = dst
		i++
	}
	return out
}

// PageData returns the raw contents of one materialized page, or nil.
func (m *Memory) PageData(page uint64) []byte {
	if p, ok := (*m.pages.Load())[page]; ok {
		return p[:]
	}
	return nil
}

// ReadU32 reads a little-endian uint32.
func (m *Memory) ReadU32(addr uint64) uint32 {
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian uint32.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// ReadU64 reads a little-endian uint64.
func (m *Memory) ReadU64(addr uint64) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
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

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

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

	// Tag is requester-private metadata (e.g. MSHR index). When it
	// implements DoneWatcher, Complete notifies it.
	Tag any
}

// DoneWatcher is implemented by request issuers (carried in
// Request.Tag) that need a synchronous signal when their request
// completes — e.g. a cache counting completed-but-uninstalled fills so
// its NextWake stays O(1). The callback may run on a parallel shard
// (a DRAM channel retiring the request), so implementations must be
// safe for concurrent use and restricted to commutative atomic updates.
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

// Queue is a bounded FIFO of requests. A zero-capacity queue is
// unbounded.
type Queue struct {
	cap   int
	items []*Request
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue(capacity int) *Queue { return &Queue{cap: capacity} }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return len(q.items) }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.cap > 0 && len(q.items) >= q.cap }

// Push appends r; it reports false (and drops nothing) if the queue is
// full.
func (q *Queue) Push(r *Request) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, r)
	return true
}

// Peek returns the oldest request without removing it, or nil.
func (q *Queue) Peek() *Request {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// Pop removes and returns the oldest request, or nil.
func (q *Queue) Pop() *Request {
	if len(q.items) == 0 {
		return nil
	}
	r := q.items[0]
	q.drop(1)
	return r
}

// DrainTo moves requests oldest-first into dst until dst refuses one,
// leaving the rest queued in order: the backpressure contract of every
// port in the system. A request leaves q only once dst has accepted it,
// so a full port delays traffic and never drops it (a dropped fill
// would strand its MSHR forever).
func (q *Queue) DrainTo(dst *Queue) {
	n := len(q.items)
	if dst.cap > 0 && dst.cap-len(dst.items) < n {
		n = dst.cap - len(dst.items)
	}
	if n <= 0 {
		return
	}
	dst.items = append(dst.items, q.items[:n]...)
	q.drop(n)
}

// drop removes the n oldest requests. The vacated tail slots are
// cleared so the backing array does not pin retired requests.
func (q *Queue) drop(n int) {
	m := copy(q.items, q.items[n:])
	clear(q.items[m:])
	q.items = q.items[:m]
}

// Items returns the backing slice, oldest first (read-only use).
func (q *Queue) Items() []*Request { return q.items }
