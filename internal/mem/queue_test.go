package mem

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// sliceQueue is the parent commit's Queue, kept as the reference model
// the ring is driven against: a slice whose Pop shifts every element
// down (copy(items, items[1:])) and clears the vacated tail.
type sliceQueue struct {
	cap   int
	items []*Request
}

func (q *sliceQueue) Full() bool { return q.cap > 0 && len(q.items) >= q.cap }
func (q *sliceQueue) Push(r *Request) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, r)
	return true
}
func (q *sliceQueue) Peek() *Request {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}
func (q *sliceQueue) Pop() *Request {
	if len(q.items) == 0 {
		return nil
	}
	r := q.items[0]
	q.drop(1)
	return r
}
func (q *sliceQueue) DrainTo(dst *sliceQueue) {
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
func (q *sliceQueue) drop(n int) {
	m := copy(q.items, q.items[n:])
	clear(q.items[m:])
	q.items = q.items[:m]
}

// TestQueueAgainstSliceModel drives pairs of ring queues and pairs of
// the parent's slice queues with the same seeded operations — pushes in
// bursts (so an unbounded ring grows while its contents are wrapped),
// pops, peeks, and partial DrainTo into a bounded and an unbounded
// destination — and compares every result, the full contents, and that
// a ring pins exactly what it holds.
func TestQueueAgainstSliceModel(t *testing.T) {
	for _, caps := range [][2]int{{0, 0}, {0, 3}, {5, 0}, {7, 4}, {1, 1}} {
		rng := rand.New(rand.NewSource(int64(caps[0]*10 + caps[1])))
		q, d := NewQueue(caps[0]), NewQueue(caps[1])
		rq, rd := &sliceQueue{cap: caps[0]}, &sliceQueue{cap: caps[1]}
		same := func(when string, q *Queue, r *sliceQueue) {
			t.Helper()
			if q.Len() != len(r.items) || q.Full() != r.Full() || q.Peek() != r.Peek() {
				t.Fatalf("caps %v %s: len/full/peek %d %v %p, model %d %v %p", caps, when,
					q.Len(), q.Full(), q.Peek(), len(r.items), r.Full(), r.Peek())
			}
			for i, want := range r.items {
				if q.At(i) != want {
					t.Fatalf("caps %v %s: slot %d holds request %d, model %d", caps, when, i, q.At(i).Addr, want.Addr)
				}
			}
			if held := pinned(q); held != q.Len() {
				t.Fatalf("caps %v %s: backing array pins %d requests, %d queued", caps, when, held, q.Len())
			}
			if n := len(q.r.buf); n&(n-1) != 0 {
				t.Fatalf("caps %v %s: backing array of %d slots is not a power of two", caps, when, n)
			}
		}
		wrapped, lastHead := false, 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				for burst := 1 + rng.Intn(12); burst > 0; burst-- {
					r := &Request{Addr: uint64(step)}
					if q.Push(r) != rq.Push(r) {
						t.Fatalf("caps %v step %d: Push disagreed with the model", caps, step)
					}
				}
			case op < 7:
				for k := rng.Intn(6); k > 0; k-- {
					if q.Pop() != rq.Pop() {
						t.Fatalf("caps %v step %d: Pop disagreed with the model", caps, step)
					}
				}
			case op < 9:
				q.DrainTo(d)
				rq.DrainTo(rd)
			default:
				for k := rng.Intn(8); k > 0; k-- {
					if d.Pop() != rd.Pop() {
						t.Fatalf("caps %v step %d: destination Pop disagreed with the model", caps, step)
					}
				}
			}
			same("source", q, rq)
			same("destination", d, rd)
			wrapped, lastHead = wrapped || q.r.head < lastHead, q.r.head
		}
		if !wrapped {
			t.Fatalf("caps %v: the source ring's head never wrapped around its backing array", caps)
		}
	}
}

func TestRingPushFrontAndGrowthWhileWrapped(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 6; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 4; i++ {
		r.Pop()
	}
	for i := 6; i < 12; i++ { // wraps inside the 8-slot array, then grows
		r.PushBack(i)
	}
	r.PushFront(3)
	r.PushFront(2)
	for want := 2; want < 12; want++ {
		if got := *r.Front(); got != want || *r.At(0) != want {
			t.Fatalf("front = %d, want %d", got, want)
		}
		if got := r.Pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring holds %d after draining", r.Len())
	}
}

// The pool's contract: New reuses a released request, then a completed
// fire-and-forget one (oldest first, never past one still in flight),
// and only then allocates; Put scribbles what it takes back — always,
// not only under test, so every digest gate in the repository runs
// against poisoned free lists — and refuses a request that is not Done
// or is already free.
func TestPoolRecyclingAndPoison(t *testing.T) {
	var p Pool
	a := p.New(Request{Addr: 0x40, Size: 64, Tag: "mshr"})
	a.Complete(3)
	p.Put(a)
	if !a.Released() || !a.Done || a.Addr != poisonAddr || a.Tag != nil || a.Size != 0 {
		t.Fatalf("released request not scribbled: %+v", a)
	}
	if b := p.New(Request{Addr: 0x80}); b != a || b.Released() || b.Done || b.Addr != 0x80 {
		t.Fatalf("New did not hand back the released request, clean: %+v", b)
	}

	w1, w2 := p.Fire(Request{Addr: 1, Kind: Write}), p.Fire(Request{Addr: 2, Kind: Write})
	w2.Complete(5) // completes out of order: w1 is still in flight ahead of it
	if c := p.New(Request{Addr: 3}); c == w1 || c == w2 {
		t.Fatal("New reclaimed a fire-and-forget request past one still in flight")
	}
	w1.Complete(6)
	if c := p.New(Request{Addr: 4}); c != w1 {
		t.Fatal("New did not reclaim the completed head of the sent list")
	}
	if c := p.New(Request{Addr: 5}); c != w2 {
		t.Fatal("New did not reclaim the next completed request in issue order")
	}

	for name, bad := range map[string]*Request{"in flight": p.New(Request{Addr: 6}), "already free": nil} {
		if bad == nil {
			bad = p.New(Request{})
			bad.Complete(0)
			p.Put(bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Put accepted a request that is %s", name)
				}
			}()
			p.Put(bad)
		}()
	}

	if n := testing.AllocsPerRun(100, func() {
		r := p.New(Request{Addr: 7})
		p.Fire(Request{Addr: 8}).Complete(1)
		r.Complete(1)
		p.Put(r)
	}); n != 0 {
		t.Fatalf("a warm pool allocates %v objects per request", n)
	}
}

// Distinct pages may be materialized and read from many goroutines at
// once (the parallel tick engine's shards do exactly that); run under
// -race this is the directory's concurrency argument, executed.
func TestMemoryConcurrentMaterialize(t *testing.T) {
	m := NewMemory()
	const workers, pagesEach = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pagesEach; i++ {
				// Interleave the workers' pages so neighbours share leaves
				// and interior nodes, and spread some far apart.
				addr := uint64(i*workers+w)*PageSize + uint64(i%3)<<40
				m.WriteU32(addr, uint32(addr>>12)+1)
				if got := m.ReadU32(addr); got != uint32(addr>>12)+1 {
					t.Errorf("worker %d: read back %#x at %#x", w, got, addr)
				}
				// A neighbour's page, maybe not there yet — at bytes nobody
				// writes: page contents are unlocked by contract.
				if got := m.ReadU32(addr + PageSize + 64); got != 0 {
					t.Errorf("worker %d: unwritten bytes read %#x", w, got)
				}
			}
		}(w)
	}
	wg.Wait()
	if m.PageCount() != workers*pagesEach || len(m.Pages()) != workers*pagesEach {
		t.Fatalf("materialized %d pages (%d enumerated), want %d", m.PageCount(), len(m.Pages()), workers*pagesEach)
	}
}

func TestMemoryResetReadsZero(t *testing.T) {
	m := NewMemory()
	m.WriteU64(0x1234_5678, 0xfeed)
	m.Write(3*PageSize-2, []byte{1, 2, 3, 4}) // straddles a page boundary
	m.Reset()
	if m.PageCount() != 0 || len(m.SnapshotPages()) != 0 || m.PageData(0x1234_5678/PageSize) != nil {
		t.Fatal("Reset left pages behind")
	}
	if m.ReadU64(0x1234_5678) != 0 || m.ReadU32(3*PageSize-2) != 0 {
		t.Fatal("memory does not read as zero after Reset")
	}
	if m.PageCount() != 0 {
		t.Fatal("reading unwritten memory materialized a page")
	}
	m.WriteU32(3*PageSize-2, 0xaabbccdd)
	if got := m.ReadU32(3*PageSize - 2); got != 0xaabbccdd || m.PageCount() != 2 {
		t.Fatalf("straddling write after Reset: read %#x over %d pages", got, m.PageCount())
	}
}

// Hostile traces use addresses near 2^63: the directory must charge
// them a few nodes and a page, never memory in proportion to the
// address.
func TestMemoryHighAddressCostsPagesNotGigabytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemory()
	for _, addr := range []uint64{1 << 62, 1<<63 - 4, ^uint64(0) - 3, 1<<62 + 1<<40} {
		m.WriteU32(addr, 0xabcd)
		if m.ReadU32(addr) != 0xabcd {
			t.Fatalf("lost the write at %#x", addr)
		}
	}
	m.Write(^uint64(0)-1, []byte{1, 2, 3, 4}) // wraps to address 0: distinct pages, no panic
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("five far-apart accesses allocated %d bytes", grew)
	}
	if m.PageCount() != 5 {
		t.Fatalf("materialized %d pages, want 5", m.PageCount())
	}
	runtime.KeepAlive(m)
}
