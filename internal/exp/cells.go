package exp

import (
	"sync"
	"sync/atomic"
)

// runCells runs cell(0), ..., cell(n-1) on min(opt.Workers, n)
// goroutines, the caller's among them, and returns their results by
// index, so a table comes out in matrix order whatever order the cells
// finish in. Each cell builds and runs its own system. Cells start in
// index order and none starts once one has failed, so the error
// returned, that of the lowest-numbered failed cell, is the one a
// sequential run returns.
//
// A sink opt shares between systems — Trace, Stats or Probe — makes the
// cells run one at a time, in order, so what it records is exactly what
// a sequential run records.
func runCells[T any](opt Options, n int, cell func(i int) (T, error)) ([]T, error) {
	workers := min(opt.Workers, n)
	if opt.Trace != nil || opt.Stats != nil || opt.Probe != nil {
		workers = 1
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if out[i], errs[i] = cell(i); errs[i] != nil {
				next.Store(int64(n))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
