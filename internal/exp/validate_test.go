package exp

import (
	"math"
	"testing"

	"emerald/internal/geom"
)

// The paper validates Emerald against Tegra silicon by correlating draw
// execution time (98%) and pixel fill rate (76.5%) across a benchmark
// set (§3.4). Hardware is out of reach here; the analogous internal
// check is that the model's draw time correlates strongly with the
// fragment work it is given, holding geometry fixed: one workload
// rendered across a range of resolutions.
func TestDrawTimeCorrelatesWithWork(t *testing.T) {
	var times, frags []float64
	for _, res := range [][2]int{{96, 72}, {128, 96}, {160, 120}, {224, 168}, {288, 216}} {
		opt := tinyOptions()
		opt.CS2Width, opt.CS2Height = res[0], res[1]
		scene, err := geom.DFSLWorkload(geom.W2Spot)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewCS2Renderer(scene, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RenderFrame(1, false); err != nil { // warmup
			t.Fatal(err)
		}
		f0 := r.S.GPU.FragsShaded()
		cycles, err := r.RenderFrame(1, false)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, float64(cycles))
		frags = append(frags, float64(r.S.GPU.FragsShaded()-f0))
	}
	r := pearson(times, frags)
	t.Logf("draw-time vs fragment-count correlation over resolutions: %.3f", r)
	if r < 0.9 {
		t.Fatalf("draw time poorly correlated with shaded work: r = %.3f", r)
	}
}

// Fill-rate sanity: pixels per cycle must rise when the screen doubles
// (more parallelism to exploit) and stay below the architectural bound
// of one TC tile launch per cluster per cycle.
func TestFillRateScales(t *testing.T) {
	rate := func(w, h int) float64 {
		opt := tinyOptions()
		opt.CS2Width, opt.CS2Height = w, h
		scene, err := geom.DFSLWorkload(geom.W3Cube)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewCS2Renderer(scene, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RenderFrame(1, false); err != nil {
			t.Fatal(err)
		}
		f0 := r.S.GPU.FragsShaded()
		cycles, err := r.RenderFrame(1, false)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.S.GPU.FragsShaded()-f0) / float64(cycles)
	}
	small := rate(64, 48)
	large := rate(128, 96)
	t.Logf("fill rate: %.3f px/cycle at 64x48, %.3f at 128x96", small, large)
	if large <= small {
		t.Fatalf("fill rate should improve with more fragments: %.3f vs %.3f", small, large)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	num := n*sxy - sx*sy
	den := math.Sqrt((n*sxx - sx*sx) * (n*syy - sy*sy))
	if den == 0 {
		return 0
	}
	return num / den
}
