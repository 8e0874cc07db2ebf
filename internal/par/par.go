// Package par provides the deterministic parallel execution substrate
// for the tick engine: a persistent worker pool plus pre-built task
// groups executed with barrier semantics once per simulated phase, the
// per-shard wake index (Wheel) and the run loop that reads it (Loop).
//
// Determinism contract: a Group's tasks must be mutually independent
// (shard-owned state only; cross-shard effects restricted to commutative
// atomic updates whose results are not observed until after Run
// returns). Under that contract Run produces state identical to running
// the tasks sequentially in slice order — which is exactly what happens
// when the pool is nil or sized for a single worker, so `-workers 1`
// executes the same statements in the same order as the pre-parallel
// engine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxDefaultWorkers caps the default worker count derived from
// runtime.NumCPU(); beyond this the per-cycle barriers dominate any
// remaining shard-level parallelism for the model sizes Emerald runs.
const MaxDefaultWorkers = 8

// DefaultWorkers returns the default worker count for the -workers
// flag: runtime.NumCPU() capped at MaxDefaultWorkers.
func DefaultWorkers() int {
	n := runtime.NumCPU()
	if n > MaxDefaultWorkers {
		n = MaxDefaultWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Pool is a persistent set of workers that execute Groups. The
// coordinator (the goroutine calling Group.Run) participates as one
// worker, so a Pool of size N starts N-1 goroutines. A Pool of size <= 1
// starts none and runs every Group inline.
//
// Pools are cheap to keep around for a whole simulation: between phases
// workers spin briefly then park on a condition variable, so an idle
// pool costs nothing after ~a few microseconds.
type Pool struct {
	size int

	epoch atomic.Uint64          // bumped once per Group.Run
	cur   atomic.Pointer[runCtx] // the group being executed

	mu     sync.Mutex
	cond   *sync.Cond
	parked int
	quit   bool

	wg sync.WaitGroup
}

// runCtx is the per-Run dispatch state shared with workers. done only
// ever counts up: a worker still leaving the previous dispatch's run
// loop may claim a task of the next one the moment next is reset, and a
// reset of done could land after that task's done.Add and erase it,
// leaving the coordinator waiting forever.
type runCtx struct {
	tasks []func()
	next  atomic.Int64
	done  atomic.Int64
}

// NewPool creates a pool of the given size. Size <= 1 yields an inline
// pool with no goroutines (still usable; Run degenerates to a loop).
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size}
	p.cond = sync.NewCond(&p.mu)
	for i := 1; i < size; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Size returns the worker count (including the coordinator).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Close stops the workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p == nil || p.size <= 1 {
		return
	}
	p.mu.Lock()
	p.quit = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// spinBudget is how many empty polls a worker performs before parking.
// At ~a few ns per poll this covers the serial exchange stages between
// the parallel phases of adjacent cycles without ever touching the
// condition variable.
const spinBudget = 1 << 16

func (p *Pool) worker() {
	defer p.wg.Done()
	seen := p.epoch.Load()
	spins := 0
	for {
		e := p.epoch.Load()
		if e != seen {
			seen = e
			spins = 0
			p.cur.Load().run()
			continue
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
		if spins < spinBudget {
			continue
		}
		p.mu.Lock()
		for p.epoch.Load() == seen && !p.quit {
			p.parked++
			p.cond.Wait()
			p.parked--
		}
		quit := p.quit
		p.mu.Unlock()
		if quit {
			return
		}
		spins = 0
	}
}

// run pulls tasks off the shared counter until none remain.
func (rc *runCtx) run() {
	n := int64(len(rc.tasks))
	for {
		i := rc.next.Add(1) - 1
		if i >= n {
			return
		}
		rc.tasks[i]()
		rc.done.Add(1)
	}
}

// Group is a fixed set of independent tasks executed together with
// barrier semantics. Build Groups once (they are allocation-free to
// Run) and call Run once per simulated phase.
type Group struct {
	pool *Pool
	rc   runCtx
}

// NewGroup builds a group over the given tasks. pool may be nil (inline
// execution). The tasks slice is retained; do not mutate it.
func NewGroup(pool *Pool, tasks []func()) *Group {
	return &Group{pool: pool, rc: runCtx{tasks: tasks}}
}

// Run executes every task and returns once all have completed. With a
// nil or single-worker pool the tasks run inline, in slice order, on
// the calling goroutine.
func (g *Group) Run() {
	p := g.pool
	if p == nil || p.size <= 1 || len(g.rc.tasks) <= 1 {
		for _, t := range g.rc.tasks {
			t()
		}
		return
	}
	// Every done.Add of earlier dispatches has landed (Run returned only
	// once they had), so this dispatch is complete at done+n whichever
	// worker runs its tasks.
	target := g.rc.done.Load() + int64(len(g.rc.tasks))
	g.rc.next.Store(0)
	p.cur.Store(&g.rc)
	p.epoch.Add(1)
	p.mu.Lock()
	if p.parked > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()

	g.rc.run() // coordinator works too

	spins := 0
	for g.rc.done.Load() < target {
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}
