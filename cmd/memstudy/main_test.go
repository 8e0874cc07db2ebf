package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"emerald/internal/exp"
	"emerald/internal/soc"
)

// TestFigAllSimulatesEachMatrixOnce: -fig all prints six figures from
// two matrices — regular load for Figures 9 and 11, high load for 12
// and 13 — so RunCaseStudyI runs once per (model, config, load), and
// what it prints is what the figures print alone. With two workers the
// cells run concurrently and the output is the same bytes.
func TestFigAllSimulatesEachMatrixOnce(t *testing.T) {
	opt := exp.Smoke()
	opt.Width, opt.Height = 32, 24
	opt.DisplayPeriod, opt.AppPeriod = 35_000, 70_000
	models := []int{2}

	var single bytes.Buffer
	for _, fig := range []string{"9", "10", "11", "12", "13", "14"} {
		if err := printFigures(&single, fig, opt, models, exp.RunCaseStudyI); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			runs := map[string]int{}
			counted := func(model int, cfg exp.MemConfig, mbps int, opt exp.Options) (soc.Results, error) {
				mu.Lock()
				runs[fmt.Sprintf("M%d/%s/%d", model, cfg, mbps)]++
				mu.Unlock()
				return exp.RunCaseStudyI(model, cfg, mbps, opt)
			}
			o := opt
			o.Workers = workers
			var all bytes.Buffer
			if err := printFigures(&all, "all", o, models, counted); err != nil {
				t.Fatal(err)
			}
			want := 2 * len(models) * len(exp.AllMemConfigs())
			if len(runs) != want {
				t.Errorf("-fig all simulated %d distinct cells, want %d: %v", len(runs), want, runs)
			}
			for cell, n := range runs {
				if n != 1 {
					t.Errorf("-fig all simulated %s %d times, want once", cell, n)
				}
			}
			if !bytes.Equal(all.Bytes(), single.Bytes()) {
				t.Errorf("-fig all printed\n%s\nthe figures one by one printed\n%s", all.String(), single.String())
			}
		})
	}
}
