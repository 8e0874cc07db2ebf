package exp

import (
	"runtime"
	"testing"

	"emerald/internal/geom"
)

// TestCellAllocationTripwire holds one smoke Case Study I cell's host
// allocation: building the M3 scene and its high-load BAS system and
// running it. The cell allocated 4.66 MB while the GL layer copied its
// assets; mapping the texture's pages (0.26 MB), writing vertex data
// straight into simulated memory (0.21 MB) and building index blobs only
// for a recorder (0.15 MB) took it to 4.04 MB. The gate is 0.11 MB (under
// 3%) above that, less than the smallest of the three, so none of them
// comes back unseen. The run is deterministic (three runs agree to
// 0.2 KB); the better of two is taken, as a runtime goroutine's
// allocation shows in one run only.
func TestCellAllocationTripwire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a Case Study I cell")
	}
	const gateMB = 4.15
	opt := Smoke()
	cell := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := runCS1(geom.M3Mask, BAS, opt.HighMbps, opt, false); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	mb := min(cell(), cell())
	t.Logf("M3/BAS smoke cell: %.3f MB (gate %.2f)", mb, gateMB)
	if mb >= gateMB {
		t.Errorf("an M3/BAS smoke cell allocates %.3f MB, gate %.2f MB", mb, gateMB)
	}
}
