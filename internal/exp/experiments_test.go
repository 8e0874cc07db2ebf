package exp

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"emerald/internal/stats"
)

// TestExperimentsCaseStudyI renders Case Study I's figures once, at the
// quick scale EXPERIMENTS.md is written at, through the one experiment
// plan, and checks them twice: the tables (9, 11, 12 and 13) against
// the ones EXPERIMENTS.md prints, so the document cannot drift from the
// program, and every figure against the paper's findings that the
// document says the model reproduces. Figures 10 and 14 read timelines
// of cells in the matrices of 9 and 12, so they add no simulation.
// About 6 s of wall time on two cores; the race pass (-short) skips it.
func TestExperimentsCaseStudyI(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 32 quick-scale SoC cells")
	}
	figs, timelines := docFigures(t, CaseStudyI...)

	// The paper's Case Study I findings, as the tables state them. Each
	// threshold's comment gives its margin on the tables above.
	models := func(ft *figTable) int { return len(ft.rows) }
	fig9 := figs["9"]
	dcbSlower := 0
	for i := range fig9.rows {
		// HMC is the slowest configuration on every model (smallest
		// lead: M3, 1.094 against DTB's 1.007).
		if hmc := fig9.num(t, i, "HMC"); hmc <= max(fig9.num(t, i, "BAS"), fig9.num(t, i, "DCB"), fig9.num(t, i, "DTB")) {
			t.Errorf("Figure 9 %s: HMC %.3f is not the slowest configuration", fig9.rows[i][0], hmc)
		}
		if fig9.num(t, i, "DCB") > 1 {
			dcbSlower++
		}
	}
	// DASH slows the GPU at regular load on 3 of 4 models (M3 sits at
	// 0.966; the lowest of the other three is M4's 1.238).
	if dcbSlower < 3 {
		t.Errorf("Figure 9: DCB slows the GPU on %d of %d models, want at least 3", dcbSlower, models(fig9))
	}
	fig11 := figs["11"]
	for i := range fig11.rows {
		// HMC loses row locality on every model (highest: M2's hit
		// rate, 0.880).
		for _, col := range []string{"rowbuffer_hit_rate", "bytes_per_activation"} {
			if v := fig11.num(t, i, col); v >= 1 {
				t.Errorf("Figure 11 %s: HMC %s %.3f of BAS, want below 1", fig11.rows[i][0], col, v)
			}
		}
	}
	fig12 := figs["12"]
	for i, row := range fig12.rows {
		// HMC lengthens the high-load frame on every model (lowest:
		// M4, 1.186).
		if row[1] == "HMC" {
			if v := fig12.num(t, i, "total_frame_time"); v <= 1 {
				t.Errorf("Figure 12 %s: HMC total frame time %.3f of BAS, want above 1", row[0], v)
			}
		}
	}
	fig13 := figs["13"]
	dtbStarves, hmcServes := 0, 0
	for i := range fig13.rows {
		if fig13.num(t, i, "DTB") < 1 {
			dtbStarves++
		}
		if fig13.num(t, i, "HMC") > 1 {
			hmcServes++
		}
	}
	// DASH-DTB starves the display on 4 of 4 models (highest: M4,
	// 0.947), so one model may flip before this fails.
	if dtbStarves < 3 {
		t.Errorf("Figure 13: DTB serves less display traffic on %d of %d models, want at least 3", dtbStarves, models(fig13))
	}
	// HMC serves the display better than BAS on 3 of 4 models (lowest
	// of them: M1, 1.193), so one may flip before this fails.
	if hmcServes < 2 {
		t.Errorf("Figure 13: HMC serves more display traffic on %d of %d models, want at least 2", hmcServes, models(fig13))
	}

	// Figure 10, M3 under HMC: the CPU bursts while the GPU is idle, so
	// its mean bandwidth in buckets where the GPU moves at most 0.2
	// bytes per cycle exceeds its mean in the GPU's render buckets (1.222;
	// the paper's callouts 1-3).
	bw := series(timelines["10"][0])
	var quiet, busy []float64
	for k, cpu := range bw["cpu"] {
		if bw["gpu"][k] > 0.2 {
			busy = append(busy, cpu)
		} else {
			quiet = append(quiet, cpu)
		}
	}
	if ratio := mean(quiet) / mean(busy); !(ratio > 1) {
		t.Errorf("Figure 10: CPU bandwidth while the GPU is idle %.3f of its level while it renders, want above 1", ratio)
	}
	// Figure 14, M1 at high load: DASH-DTB gives the CPU priority, so it
	// moves more CPU bytes than BAS over the same frames (1.210), and
	// the display starves (0.901). Both timelines bucket alike, so sums
	// of bytes per cycle compare as bytes do.
	bas, dtb := series(timelines["14"][0]), series(timelines["14"][1])
	if v := sum(dtb["cpu"]) / sum(bas["cpu"]); !(v > 1) {
		t.Errorf("Figure 14: DTB moves %.3f of BAS's CPU bytes, want above 1", v)
	}
	if v := sum(dtb["display"]) / sum(bas["display"]); !(v < 1) {
		t.Errorf("Figure 14: DTB moves %.3f of BAS's display bytes, want below 1", v)
	}
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// TestExperimentsCaseStudyII is TestExperimentsCaseStudyI's method for
// Figures 17 and 18 (~3.5 s): the tables EXPERIMENTS.md prints, the
// paper's finding that the best WT size depends on the workload, with
// a large spread across sizes, and the shape the document states for
// W1's misses. Figure 19 is not checked; validate_test.go holds the
// §3.4 validation's analogue.
func TestExperimentsCaseStudyII(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six quick-scale WT sweeps")
	}
	figs, _ := docFigures(t, "17", "18")
	fig17 := figs["17"]
	optima := make(map[string]bool)
	for i, row := range fig17.rows {
		lo, hi, best := math.Inf(1), 0.0, ""
		for _, wt := range fig17.head[1:] {
			v := fig17.num(t, i, wt)
			if v < lo {
				lo, best = v, wt
			}
			hi = max(hi, v)
		}
		optima[best] = true
		// Frame time spreads by at least 20% across WT sizes on every
		// workload (smallest: W6, 1.311 against 0.988, 1.33).
		if hi/lo < 1.20 {
			t.Errorf("Figure 17 %s: max/min across WT sizes %.3f, want at least 1.20", row[0], hi/lo)
		}
	}
	// The optimum is not one WT size for every workload (WT1 for W1
	// and W3, WT2 for W2, WT3 for W4 and W5, WT4 for W6).
	if len(optima) < 2 {
		t.Errorf("Figure 17: every workload is fastest at the same WT size (%v)", optima)
	}

	fig18 := figs["18"]
	var wts, exec, tex []float64
	for i := range fig18.rows {
		wts = append(wts, fig18.num(t, i, "WT"))
		exec = append(exec, fig18.num(t, i, "exec_time"))
		tex = append(tex, fig18.num(t, i, "texture_misses"))
	}
	// Texture misses fall by at least 20% at some mid WT size (lowest:
	// 0.740 at WT 4).
	if lo := slices.Min(tex[1 : len(tex)-1]); lo > 0.80 {
		t.Errorf("Figure 18: texture misses fall to %.3f at best between the end WT sizes, want at most 0.80", lo)
	}
	// Execution time is at its minimum at WT 5 or below (0.989 at WT 3)
	// and rises again at every WT from 6 on (lowest there: 1.153 at WT
	// 10, 1.17 times the minimum).
	best := slices.Index(exec, slices.Min(exec))
	if wts[best] > 5 {
		t.Errorf("Figure 18: execution time is lowest at WT %.0f, want WT 5 or below", wts[best])
	}
	for i, wt := range wts {
		if wt >= 6 && exec[i] < 1.10*exec[best] {
			t.Errorf("Figure 18: execution time %.3f at WT %.0f, want at least 1.10 times the minimum %.3f", exec[i], wt, exec[best])
		}
	}
	// The paper reports 78-82% correlation between execution time and
	// L1 misses; at this scale balance dominates, so it is reported, not
	// held.
	t.Logf("Figure 18: exec-vs-texture-miss correlation %.2f (paper: 0.78-0.82 across L1D, L1Z and L1T)", correlation(exec, tex))
}

// correlation is the Pearson correlation of x and y.
func correlation(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx, sy = sx+x[i], sy+y[i]
		sxx, syy, sxy = sxx+x[i]*x[i], syy+y[i]*y[i], sxy+x[i]*y[i]
	}
	return (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
}

// docFigures renders figs at the quick scale EXPERIMENTS.md is written
// at, through the one experiment plan, and fails the test where the
// document's table under a figure's heading is not what the program
// prints. It returns the rendered tables, and the timeline figures'
// timelines, by figure name.
func docFigures(t *testing.T, figs ...string) (map[string]*figTable, map[string][]*stats.Timeline) {
	t.Helper()
	opt := Quick()
	opt.Workers = runtime.NumCPU()
	res, err := Plan{Figs: figs, Opt: opt}.Simulate(RunCell)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	out, timelines := make(map[string]*figTable), make(map[string][]*stats.Timeline)
	for _, f := range res.Figures() {
		if f.Table == nil {
			timelines[f.Name] = f.Timelines
			continue
		}
		ft := &figTable{head: f.Table.Headers, rows: tableCells(f.Table)}
		out[f.Name] = ft
		want := ft.markdown()
		if got := docTable(string(doc), "### Figure "+f.Name+" "); got != want {
			t.Errorf("EXPERIMENTS.md Figure %s table is not what the program prints at quick scale:\n%s\nwant:\n%s",
				f.Name, got, want)
		}
	}
	return out, timelines
}

// figTable is a rendered figure table: its headers and its data rows
// as printed.
type figTable struct {
	head []string
	rows [][]string
}

// markdown renders the table the way EXPERIMENTS.md prints it.
func (ft *figTable) markdown() string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(ft.head)
	b.WriteString(strings.Repeat("|---", len(ft.head)) + "|\n")
	for _, r := range ft.rows {
		line(r)
	}
	return b.String()
}

// num reads row i's value in the named column.
func (ft *figTable) num(t *testing.T, i int, col string) float64 {
	t.Helper()
	for j, h := range ft.head {
		if h == col {
			v, err := strconv.ParseFloat(ft.rows[i][j], 64)
			if err != nil {
				t.Fatalf("row %v column %s: %v", ft.rows[i], col, err)
			}
			return v
		}
	}
	t.Fatalf("no column %q in %v", col, ft.head)
	return 0
}

// docTable returns the first markdown table after the line that starts
// with heading, "" when there is none.
func docTable(doc, heading string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case !in && strings.HasPrefix(line, heading):
			in = true
		case in && strings.HasPrefix(line, "|"):
			b.WriteString(line + "\n")
		case in && b.Len() > 0:
			return b.String()
		}
	}
	return b.String()
}
