package exp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"emerald/internal/emtrace"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// TestRunCellsSharedSinkRunsOneAtATime: a trace, registry or probe that
// every cell's system writes to must see the cells one after another,
// in index order, however many workers are asked for.
func TestRunCellsSharedSinkRunsOneAtATime(t *testing.T) {
	sinks := map[string]Options{
		"stats": {Stats: stats.NewRegistry()},
		"trace": {Trace: emtrace.New(0)},
		"probe": {Probe: telemetry.NewProbe()},
	}
	for name, opt := range sinks {
		opt.Workers = 4
		var inFlight, most atomic.Int64
		var order []int
		_, err := runCells(opt, 8, func(i int) (struct{}, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			if n > most.Load() {
				most.Store(n)
			}
			time.Sleep(time.Millisecond) // room for a second cell to start
			order = append(order, i)
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if most.Load() != 1 {
			t.Errorf("%s: %d cells in flight at once, want 1", name, most.Load())
		}
		for i, got := range order {
			if got != i {
				t.Errorf("%s: cells ran in order %v, want index order", name, order)
				break
			}
		}
	}
}

// TestRunCellsFansOut: without a shared sink the cells run on up to
// opt.Workers goroutines, each exactly once, their results come back by
// index, and the error returned is the failed cell with the lowest
// index.
func TestRunCellsFansOut(t *testing.T) {
	const n = 16
	var inFlight, arrived atomic.Int64
	var ran [n]atomic.Int64
	got, err := runCells(Options{Workers: 3}, n, func(i int) (int, error) {
		if inFlight.Add(1) > 3 {
			t.Errorf("more than 3 cells in flight")
		}
		defer inFlight.Add(-1)
		ran[i].Add(1)
		if i >= 2 {
			return 10 * i, nil
		}
		// Cells 0 and 1 are claimed by different workers: each waits
		// until the other has started.
		arrived.Add(1)
		for deadline := time.Now().Add(10 * time.Second); arrived.Load() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("cell %d ran alone", i)
			}
		}
		return 10 * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i].Load() != 1 || got[i] != 10*i {
			t.Errorf("cell %d ran %d times with result %d, want once with %d", i, ran[i].Load(), got[i], 10*i)
		}
	}

	for _, workers := range []int{1, 4} {
		_, err := runCells(Options{Workers: workers}, n, func(i int) (int, error) {
			if i == 5 || i == 9 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		if want := errors.New("cell 5"); err == nil || err.Error() != want.Error() {
			t.Errorf("workers %d: error %v, want %v", workers, err, want)
		}
	}
}
