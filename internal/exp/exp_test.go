package exp

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/stats"
)

// tinyOptions keeps unit tests fast; the real scaling lives in Quick().
func tinyOptions() Options {
	o := Quick()
	o.Width, o.Height = 80, 60
	o.Frames = 1
	o.WarmupFrames = 1
	o.DisplayPeriod = 50_000
	o.AppPeriod = 100_000
	o.CS2Width, o.CS2Height = 96, 72
	o.MaxWT = 3
	o.DFSLRunFrames = 2
	return o
}

func TestRunCaseStudyICell(t *testing.T) {
	r, err := RunCaseStudyI(geom.M2Cube, BAS, 1333, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanGPUCycles <= 0 || r.DisplayServed == 0 {
		t.Fatalf("degenerate results: %+v", r)
	}
}

// simulate runs a plan of the given figures at tinyOptions.
func simulate(t *testing.T, p Plan) []Figure {
	t.Helper()
	res, err := p.Simulate(RunCell)
	if err != nil {
		t.Fatal(err)
	}
	return res.Figures()
}

func TestFig09ShapeSmall(t *testing.T) {
	tab := simulate(t, Plan{Figs: []string{"9"}, Models: []int{geom.M2Cube}, Opt: tinyOptions()})[0].Table
	rows := tableCells(tab)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1] != "1.000" {
		t.Fatalf("BAS must normalize to 1.0, got %s", rows[0][1])
	}
	out := tableText(tab)
	for _, h := range []string{"BAS", "DCB", "DTB", "HMC"} {
		if !strings.Contains(out, h) {
			t.Fatalf("missing column %s:\n%s", h, out)
		}
	}
}

func TestFig10TimelineHasAllSources(t *testing.T) {
	bw := series(simulate(t, Plan{Figs: []string{"10"}, Opt: tinyOptions()})[0].Timelines[0])
	for _, src := range []string{"cpu", "gpu", "display"} {
		if sum(bw[src]) == 0 {
			t.Fatalf("timeline missing %s traffic", src)
		}
	}
	if len(bw["cpu"]) < 4 {
		t.Fatalf("timeline too coarse: %d buckets", len(bw["cpu"]))
	}
}

func TestFig17SweepRuns(t *testing.T) {
	rows := tableCells(simulate(t, Plan{Figs: []string{"17"}, Workloads: []int{geom.W3Cube}, Opt: tinyOptions()})[0].Table)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1] != "1.000" {
		t.Fatalf("WT1 must normalize to 1.0, got %q", rows[0][1])
	}
}

func TestFig19PicksPoliciesAndRuns(t *testing.T) {
	res, err := Plan{Figs: []string{"19"}, Workloads: []int{geom.W3Cube}, Opt: tinyOptions()}.Simulate(RunCell)
	if err != nil {
		t.Fatal(err)
	}
	tab, raw := res.Figures()[0].Table, res.Policies()
	if rows := tableCells(tab); len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, p := range []DFSLPolicy{MLB, MLC, SOPT, DFSL} {
		if raw[geom.W3Cube][p] <= 0 {
			t.Fatalf("policy %s produced no time", p)
		}
	}
	if MLB.String() != "MLB" || DFSL.String() != "DFSL" {
		t.Fatal("policy names wrong")
	}
}

func TestMemConfigNames(t *testing.T) {
	if BAS.String() != "BAS" || HMC.String() != "HMC" {
		t.Fatal("config names wrong")
	}
	if len(AllMemConfigs()) != 4 {
		t.Fatal("want 4 configurations (Table 6)")
	}
}

func TestFig12And13HighLoadShapes(t *testing.T) {
	opt := tinyOptions()
	opt.Frames = 2 // frame-to-frame deltas need at least two measured frames
	figs := simulate(t, Plan{Figs: []string{"12", "13"}, Models: []int{geom.M4Triangles}, Opt: opt})
	t12 := tableCells(figs[0].Table)
	if len(t12) != 4 { // one row per config for the single model
		t.Fatalf("fig12 rows = %d", len(t12))
	}
	if t12[0][2] != "1.000" {
		t.Fatalf("BAS frame time must normalize to 1, got %q", t12[0][2])
	}
	t13 := tableCells(figs[1].Table)
	if len(t13) != 1 || t13[0][1] != "1.000" {
		t.Fatalf("fig13 shape wrong: %q", t13)
	}
}

func TestFig14TwoTimelines(t *testing.T) {
	tls := simulate(t, Plan{Figs: []string{"14"}, Opt: tinyOptions()})[0].Timelines
	for name, tl := range map[string]*stats.Timeline{"bas": tls[0], "dtb": tls[1]} {
		if bw := series(tl); sum(bw["cpu"]) == 0 || sum(bw["gpu"]) == 0 {
			t.Fatalf("%s timeline missing traffic", name)
		}
	}
}

func TestFig18Table(t *testing.T) {
	opt := tinyOptions()
	rows := tableCells(simulate(t, Plan{Figs: []string{"18"}, Opt: opt})[0].Table)
	if len(rows) != opt.MaxWT {
		t.Fatalf("fig18 rows = %d, want %d", len(rows), opt.MaxWT)
	}
	if rows[0][1] != "1.000" {
		t.Fatalf("WT1 exec time must normalize to 1, got %q", rows[0][1])
	}
}

// tableText is what the harnesses print for a table.
func tableText(tab *stats.Table) string {
	var b strings.Builder
	tab.Write(&b)
	return b.String()
}

// tableCells reads a table's data rows back from what Write prints,
// splitting each row at the column gaps.
func tableCells(tab *stats.Table) [][]string {
	_, body, _ := strings.Cut(tableText(tab), "-\n")
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line != "" {
			rows = append(rows, columnGap.Split(strings.TrimSpace(line), -1))
		}
	}
	return rows
}

var columnGap = regexp.MustCompile(`\s{2,}`)

// series reads a timeline back from what Dump prints: bytes per cycle
// by source, one value per bucket.
func series(tl *stats.Timeline) map[string][]float64 {
	var b strings.Builder
	tl.Dump(&b, 0)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	names := strings.Fields(lines[0])[1:]
	out := make(map[string][]float64, len(names))
	for _, line := range lines[1:] {
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			out[names[i]] = append(out[names[i]], v)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
