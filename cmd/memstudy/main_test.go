package main

import (
	"bytes"
	"testing"

	"emerald/internal/exp"
)

// TestFigAllSimulatesEachMatrixOnce: -fig all prints six figures from
// two matrices — regular load for Figures 9 and 11, high load for 12
// and 13 — so RunCaseStudyI runs once per (model, config, load), and
// what it prints is what the figures print alone.
func TestFigAllSimulatesEachMatrixOnce(t *testing.T) {
	opt := exp.Smoke()
	opt.Width, opt.Height = 32, 24
	opt.DisplayPeriod, opt.AppPeriod = 35_000, 70_000
	models := []int{2}
	runs := map[int]int{}
	counted := func(mbps int, opt exp.Options, models []int) (exp.CS1Results, error) {
		runs[mbps]++
		return exp.CaseStudyIMatrix(mbps, opt, models)
	}

	var all bytes.Buffer
	if err := printFigures(&all, "all", opt, models, counted); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[opt.RegularMbps] != 1 || runs[opt.HighMbps] != 1 {
		t.Errorf("-fig all ran the matrices %v times, want once at %d and once at %d Mb/s",
			runs, opt.RegularMbps, opt.HighMbps)
	}

	var single bytes.Buffer
	for _, fig := range []string{"9", "10", "11", "12", "13", "14"} {
		if err := printFigures(&single, fig, opt, models, exp.CaseStudyIMatrix); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(all.Bytes(), single.Bytes()) {
		t.Errorf("-fig all printed\n%s\nthe figures one by one printed\n%s", all.String(), single.String())
	}
}
