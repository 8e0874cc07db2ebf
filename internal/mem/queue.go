package mem

import "fmt"

// Ring is a growable circular FIFO over a power-of-two backing array:
// PushBack, PushFront, Pop, Front and At are O(1), nothing is shifted,
// and a popped slot is zeroed so the array pins nothing it no longer
// holds. The zero value is an empty ring; the array grows by doubling,
// sized by use.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of held elements.
func (r *Ring[T]) Len() int { return r.n }

func (r *Ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.At(i)
	}
	r.buf, r.head = buf, 0
}

// PushBack appends v behind the newest element.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront puts v back at the front (ahead of the oldest element).
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// At returns the i-th oldest element, 0 <= i < Len.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Front returns the oldest element; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Pop removes and returns the oldest element; the ring must not be
// empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Queue is a bounded FIFO of requests. A zero-capacity queue is
// unbounded.
type Queue struct {
	cap int
	r   Ring[*Request]
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue(capacity int) *Queue { return &Queue{cap: capacity} }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return q.r.n }

// Full reports whether the queue is at capacity. A port's producer asks
// this before it builds a request, so a back-pressured cycle builds
// nothing.
func (q *Queue) Full() bool { return q.cap > 0 && q.r.n >= q.cap }

// Push appends r; it reports false (and drops nothing) if the queue is
// full.
func (q *Queue) Push(r *Request) bool {
	if q.Full() {
		return false
	}
	q.r.PushBack(r)
	return true
}

// MustPush appends r to a queue its caller has just seen not Full: the
// check-room-first half of the backpressure contract, for producers
// that build their request only once they know it will be taken.
func (q *Queue) MustPush(r *Request) {
	if !q.Push(r) {
		panic("mem: MustPush on a full queue")
	}
}

// Peek returns the oldest request without removing it, or nil.
func (q *Queue) Peek() *Request {
	if q.r.n == 0 {
		return nil
	}
	return *q.r.Front()
}

// Pop removes and returns the oldest request, or nil.
func (q *Queue) Pop() *Request {
	if q.r.n == 0 {
		return nil
	}
	return q.r.Pop()
}

// At returns the i-th oldest request, 0 <= i < Len (audits and tests).
func (q *Queue) At(i int) *Request { return *q.r.At(i) }

// AuditReleased is the queue's share of the guard's ownership audit: no
// queued request may be on a free list.
func (q *Queue) AuditReleased() error {
	for i := 0; i < q.r.n; i++ {
		if q.At(i).Released() {
			return fmt.Errorf("slot %d holds a released request", i)
		}
	}
	return nil
}

// DrainTo moves requests oldest-first into dst until dst refuses one,
// leaving the rest queued in order: the backpressure contract of every
// port in the system. A request leaves q only once dst has accepted it,
// so a full port delays traffic and never drops it (a dropped fill
// would strand its MSHR forever).
func (q *Queue) DrainTo(dst *Queue) {
	for q.r.n > 0 && !dst.Full() {
		dst.r.PushBack(q.r.Pop())
	}
}

// poisonAddr is scribbled over a released request, so a stale reader
// shows up in a digest or a guard audit instead of reading plausible
// values.
const poisonAddr = 0xdead_dead_dead_dead

// Pool is one issuer's private supply of requests: the only place a
// Request is allocated. The ownership rule (DESIGN.md "Memory request
// path"): a request returns to a pool only in the hands of the
// component that took it from that pool, in that component's own tick
// phase, after it has observed Done. Nothing downstream frees, no pool
// is shared, and a request built elsewhere is never adopted. Not safe
// for concurrent use.
type Pool struct {
	free []*Request
	// sent holds fire-and-forget requests (stores, writebacks) in issue
	// order; New reuses the head once downstream has completed it.
	sent Queue
}

// New returns a request holding v, recycled when one is available. The
// caller hands it back with Put once it has seen it Done.
func (p *Pool) New(v Request) *Request {
	var r *Request
	if n := len(p.free); n > 0 {
		r, p.free = p.free[n-1], p.free[:n-1]
	} else if h := p.sent.Peek(); h != nil && h.Done {
		r = p.sent.Pop()
	} else {
		r = new(Request)
	}
	*r = v
	return r
}

// Fire is New for a request nobody waits on: the pool keeps track of it
// and reclaims it itself after downstream completes it.
func (p *Pool) Fire(v Request) *Request {
	r := p.New(v)
	p.sent.r.PushBack(r)
	return r
}

// Put releases a request obtained from New, which must be Done.
func (p *Pool) Put(r *Request) {
	if !r.Done || r.released {
		panic("mem: request released before completion, or twice")
	}
	*r = Request{Addr: poisonAddr, Done: true, released: true}
	p.free = append(p.free, r)
}
