package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"emerald/internal/exp"
)

// TestFigAllSweepsEachWorkloadOnce: Figure 17 plots the WT sweeps and
// Figure 19 picks SOPT from them, so -fig all sweeps each workload once
// (and runs every other cell once), and what it prints is what the
// figures print alone. With two workers the cells run concurrently and
// the output is the same bytes.
func TestFigAllSweepsEachWorkloadOnce(t *testing.T) {
	opt := exp.Smoke()
	opt.CS2Width, opt.CS2Height = 48, 36
	opt.MaxWT, opt.DFSLRunFrames = 2, 2
	workloads := []int{2, 3}
	printPlan := func(t *testing.T, w *bytes.Buffer, figs []string, opt exp.Options, run func(exp.Cell, exp.Options) (exp.CellResult, error)) {
		t.Helper()
		res, err := exp.Plan{Figs: figs, Workloads: workloads, Opt: opt}.Simulate(run)
		if err != nil {
			t.Fatal(err)
		}
		exp.WriteFigures(w, res.Figures())
	}

	var single bytes.Buffer
	for _, fig := range exp.CaseStudyII {
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
			printPlan(t, &all, exp.CaseStudyII, o, counted)
			sweeps := 0
			for c, n := range runs {
				if n != 1 {
					t.Errorf("-fig all simulated %+v %d times, want once", c, n)
				}
				if c.Kind == exp.SweepCell {
					sweeps++
				}
			}
			// The sweeps, Figure 18's WT points and Figure 19's policy runs.
			if want := len(workloads) + opt.MaxWT + 4*len(workloads); len(runs) != want || sweeps != len(workloads) {
				t.Errorf("-fig all simulated %d cells (%d sweeps), want %d (%d): %v", len(runs), sweeps, want, len(workloads), runs)
			}
			if !bytes.Equal(all.Bytes(), single.Bytes()) {
				t.Errorf("-fig all printed\n%s\nthe figures one by one printed\n%s", all.String(), single.String())
			}
		})
	}
}
