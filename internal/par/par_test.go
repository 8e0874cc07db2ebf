package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestInlineOrder proves the degenerate pool executes tasks in slice
// order on the calling goroutine — the `-workers 1` determinism anchor.
func TestInlineOrder(t *testing.T) {
	for _, pool := range []*Pool{nil, NewPool(1)} {
		var got []int
		tasks := make([]func(), 8)
		for i := range tasks {
			i := i
			tasks[i] = func() { got = append(got, i) }
		}
		g := NewGroup(pool, tasks)
		g.Run()
		g.Run()
		if len(got) != 16 {
			t.Fatalf("ran %d tasks, want 16", len(got))
		}
		for i, v := range got {
			if v != i%8 {
				t.Fatalf("task order %v not sequential", got)
			}
		}
		pool.Close()
	}
}

// TestParallelCompletion checks every task runs exactly once per Run
// across many reuses of the same group, with more tasks than workers.
func TestParallelCompletion(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const tasks, rounds = 13, 200
	counts := make([]atomic.Int64, tasks)
	fs := make([]func(), tasks)
	for i := range fs {
		i := i
		fs[i] = func() { counts[i].Add(1) }
	}
	g := NewGroup(p, fs)
	for r := 0; r < rounds; r++ {
		g.Run()
	}
	for i := range counts {
		if v := counts[i].Load(); v != rounds {
			t.Fatalf("task %d ran %d times, want %d", i, v, rounds)
		}
	}
}

// TestBarrierVisibility checks Run is a full barrier: shard-local
// (non-atomic) writes made inside tasks are visible to the coordinator
// after Run returns.
func TestBarrierVisibility(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 8
	vals := make([]int, n)
	fs := make([]func(), n)
	for i := range fs {
		i := i
		fs[i] = func() { vals[i]++ }
	}
	g := NewGroup(p, fs)
	const rounds = 500
	for r := 1; r <= rounds; r++ {
		g.Run()
		for i, v := range vals {
			if v != r {
				t.Fatalf("round %d: vals[%d]=%d, shard write not visible", r, i, v)
			}
		}
	}
}

// TestMultipleGroups interleaves two groups on one pool, as the tick
// engine does with its per-phase groups.
func TestMultipleGroups(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var a, b atomic.Int64
	ga := NewGroup(p, []func(){func() { a.Add(1) }, func() { a.Add(1) }, func() { a.Add(1) }})
	gb := NewGroup(p, []func(){func() { b.Add(10) }, func() { b.Add(10) }})
	for i := 0; i < 100; i++ {
		ga.Run()
		gb.Run()
	}
	if a.Load() != 300 || b.Load() != 2000 {
		t.Fatalf("a=%d b=%d, want 300/2000", a.Load(), b.Load())
	}
}

func TestDefaultWorkers(t *testing.T) {
	n := DefaultWorkers()
	if n < 1 || n > MaxDefaultWorkers {
		t.Fatalf("DefaultWorkers()=%d out of [1,%d]", n, MaxDefaultWorkers)
	}
}

// TestOversubscribedDispatch is the lost-completion regression: with
// fewer Ps than workers a worker is regularly descheduled while leaving
// the previous dispatch's run loop, and wakes up inside the next one.
// Whatever it claims and completes there must still be counted. A lost
// count leaves Run spinning forever, so the dispatches run beside a
// hard deadline.
func TestOversubscribedDispatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewPool(4)
	const dispatches = 1 << 20
	tasks := make([]func(), 4)
	for i := range tasks {
		tasks[i] = func() {}
	}
	g := NewGroup(p, tasks)
	var ran atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for ; ran.Load() < dispatches; ran.Add(1) {
			g.Run()
		}
	}()
	select {
	case <-finished:
		p.Close()
	case <-time.After(time.Minute):
		// The coordinator is wedged inside Run; the pool cannot be closed.
		t.Fatalf("Run hung after %d of %d dispatches", ran.Load(), dispatches)
	}
}
