package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"emerald/internal/exp"
)

// TestFigAllSweepsEachWorkloadOnce: Figure 17 plots the WT sweeps and
// Figure 19 picks SOPT from them, so -fig all runs RunWTSweep once per
// workload, and what it prints is what the figures print alone. With two
// workers the sweeps run concurrently and the output is the same bytes.
func TestFigAllSweepsEachWorkloadOnce(t *testing.T) {
	opt := exp.Smoke()
	opt.CS2Width, opt.CS2Height = 48, 36
	opt.MaxWT, opt.DFSLRunFrames = 2, 2
	workloads := []int{2, 3}

	var single bytes.Buffer
	for _, fig := range []string{"17", "18", "19"} {
		if err := printFigures(&single, fig, opt, workloads, exp.RunWTSweep); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			runs := map[int]int{}
			counted := func(w int, opt exp.Options) ([]uint64, error) {
				mu.Lock()
				runs[w]++
				mu.Unlock()
				return exp.RunWTSweep(w, opt)
			}
			o := opt
			o.Workers = workers
			var all bytes.Buffer
			if err := printFigures(&all, "all", o, workloads, counted); err != nil {
				t.Fatal(err)
			}
			if len(runs) != 2 || runs[2] != 1 || runs[3] != 1 {
				t.Errorf("-fig all swept the workloads %v times, want each once", runs)
			}
			if !bytes.Equal(all.Bytes(), single.Bytes()) {
				t.Errorf("-fig all printed\n%s\nthe figures one by one printed\n%s", all.String(), single.String())
			}
		})
	}
}
