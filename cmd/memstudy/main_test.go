package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"emerald/internal/exp"
)

// TestFigAllSimulatesEachMatrixOnce: -fig all prints six figures from
// two matrices (regular load for Figures 9 and 11, high load for 12 and
// 13) and the timelines of three runs (Figures 10 and 14, whose models
// are not in this matrix), so every cell is simulated once, and what it
// prints is what the figures print alone. With two workers the
// cells run concurrently and the output is the same bytes.
func TestFigAllSimulatesEachMatrixOnce(t *testing.T) {
	opt := exp.Smoke()
	opt.Width, opt.Height = 32, 24
	opt.DisplayPeriod, opt.AppPeriod = 35_000, 70_000
	models := []int{2}
	printPlan := func(t *testing.T, w *bytes.Buffer, figs []string, opt exp.Options, run func(exp.Cell, exp.Options) (exp.CellResult, error)) {
		t.Helper()
		res, err := exp.Plan{Figs: figs, Models: models, Opt: opt}.Simulate(run)
		if err != nil {
			t.Fatal(err)
		}
		exp.WriteFigures(w, res.Figures())
	}

	var single bytes.Buffer
	for _, fig := range exp.CaseStudyI {
		printPlan(t, &single, []string{fig}, opt, exp.RunCell)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			runs := map[exp.Cell]int{}
			counted := func(c exp.Cell, opt exp.Options) (exp.CellResult, error) {
				mu.Lock()
				runs[c]++
				mu.Unlock()
				return exp.RunCell(c, opt)
			}
			o := opt
			o.Workers = workers
			var all bytes.Buffer
			printPlan(t, &all, exp.CaseStudyI, o, counted)
			// Two matrices, Figure 10's M3 run and Figure 14's two M1 runs.
			want := 2*len(models)*len(exp.AllMemConfigs()) + 3
			if len(runs) != want {
				t.Errorf("-fig all simulated %d distinct cells, want %d: %v", len(runs), want, runs)
			}
			for cell, n := range runs {
				if n != 1 {
					t.Errorf("-fig all simulated %+v %d times, want once", cell, n)
				}
			}
			if !bytes.Equal(all.Bytes(), single.Bytes()) {
				t.Errorf("-fig all printed\n%s\nthe figures one by one printed\n%s", all.String(), single.String())
			}
		})
	}
}
