package exp

import (
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

func TestFig09ShapeSmall(t *testing.T) {
	res, err := CaseStudyIMatrix(RunCaseStudyI, 1333, tinyOptions(), []int{geom.M2Cube})
	if err != nil {
		t.Fatal(err)
	}
	tab := Fig09Table(res)
	if tab.Rows() != 1 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if tab.Cell(0, 1) != "1.000" {
		t.Fatalf("BAS must normalize to 1.0, got %s", tab.Cell(0, 1))
	}
	out := tab.String()
	for _, h := range []string{"BAS", "DCB", "DTB", "HMC"} {
		if !strings.Contains(out, h) {
			t.Fatalf("missing column %s:\n%s", h, out)
		}
	}
}

func TestFig10TimelineHasAllSources(t *testing.T) {
	opt := tinyOptions()
	tl, err := Fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"cpu", "gpu", "display"} {
		if tl.TotalBytes(src) == 0 {
			t.Fatalf("timeline missing %s traffic", src)
		}
	}
	if tl.Buckets() < 4 {
		t.Fatalf("timeline too coarse: %d buckets", tl.Buckets())
	}
}

func TestFig17SweepRuns(t *testing.T) {
	opt := tinyOptions()
	times, err := RunWTSweep(geom.W3Cube, opt)
	if err != nil {
		t.Fatal(err)
	}
	tab := Fig17Table([]int{geom.W3Cube}, map[int][]uint64{geom.W3Cube: times}, opt.MaxWT)
	if tab.Rows() != 1 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if tab.Cell(0, 1) != "1.000" {
		t.Fatalf("WT1 must normalize to 1.0, got %q", tab.Cell(0, 1))
	}
}

func TestFig19PicksPoliciesAndRuns(t *testing.T) {
	opt := tinyOptions()
	times, err := RunWTSweep(geom.W3Cube, opt)
	if err != nil {
		t.Fatal(err)
	}
	tab, raw, err := Fig19(opt, []int{geom.W3Cube}, map[int][]uint64{geom.W3Cube: times})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 1 {
		t.Fatalf("rows = %d", tab.Rows())
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
	res, err := CaseStudyIMatrix(RunCaseStudyI, opt.HighMbps, opt, []int{geom.M4Triangles})
	if err != nil {
		t.Fatal(err)
	}
	t12 := Fig12Table(res)
	if t12.Rows() != 4 { // one row per config for the single model
		t.Fatalf("fig12 rows = %d", t12.Rows())
	}
	if t12.Cell(0, 2) != "1.000" {
		t.Fatalf("BAS frame time must normalize to 1, got %q", t12.Cell(0, 2))
	}
	t13 := Fig13Table(res)
	if t13.Rows() != 1 || t13.Cell(0, 1) != "1.000" {
		t.Fatalf("fig13 shape wrong: rows=%d bas=%q", t13.Rows(), t13.Cell(0, 1))
	}
}

func TestFig14TwoTimelines(t *testing.T) {
	opt := tinyOptions()
	bas, dtb, err := Fig14(opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, tl := range map[string]*stats.Timeline{"bas": bas, "dtb": dtb} {
		if tl.TotalBytes("cpu") == 0 || tl.TotalBytes("gpu") == 0 {
			t.Fatalf("%s timeline missing traffic", name)
		}
	}
}

func TestFig18Table(t *testing.T) {
	opt := tinyOptions()
	tab, err := Fig18(opt)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != opt.MaxWT {
		t.Fatalf("fig18 rows = %d, want %d", tab.Rows(), opt.MaxWT)
	}
	if tab.Cell(0, 1) != "1.000" {
		t.Fatalf("WT1 exec time must normalize to 1, got %q", tab.Cell(0, 1))
	}
}
