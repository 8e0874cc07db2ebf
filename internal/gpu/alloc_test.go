package gpu

import (
	"runtime"
	"testing"

	"emerald/internal/shader"
)

// saxpyRig is the Table 7 standalone system with a 32k-element SAXPY
// set up in memory: the steady state of bench's gpgpu_stream.
func saxpyRig() (*Standalone, Kernel) {
	s := DefaultStandalone(nil)
	const n = 32 * 1024
	const x, y, params = 0x10_0000, 0x20_0000, 0x50_0000
	m := s.Mem()
	for i := uint64(0); i < n; i++ {
		m.WriteF32(x+i*4, float32(i%16))
		m.WriteF32(y+i*4, 1)
	}
	m.WriteU32(params, x)
	m.WriteU32(params+4, y)
	m.WriteF32(params+8, 2)
	m.WriteU32(params+12, n)
	return s, Kernel{Prog: shader.KernelSAXPY, Blocks: n / 256, ThreadsPerBlock: 256, ParamBase: params}
}

// saxpyLaunchBudget is what one warm SAXPY launch may allocate: kernel
// bookkeeping only — the kernelState, one kernelEnv per thread block
// (128 here), and slack for the run loop. Every request, MSHR, memOp,
// warp, queue slot and event behind the 2048 loads and 1024 stores of
// the launch is recycled; at the parent commit the same launch
// allocated 3271 objects, one per request on top of these.
const saxpyLaunchBudget = 1 + 128 + 16

// TestWarmKernelLaunchAllocatesOnlyBookkeeping is the system-level
// allocation gate of the memory request path: after three warm-up
// launches, a SAXPY launch stays inside a fixed object budget. Best of
// five under GOMAXPROCS(1), as simt.TestSteadyStateTickDoesNotAllocate
// does: a leak shows in every launch, a runtime goroutine's allocation
// in one.
func TestWarmKernelLaunchAllocatesOnlyBookkeeping(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, k := saxpyRig()
	launch := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.RunKernel(k, 50_000_000); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 3; i++ {
		launch()
	}
	best := launch()
	for i := 0; i < 4; i++ {
		best = min(best, launch())
	}
	if best > saxpyLaunchBudget {
		t.Fatalf("a warm SAXPY launch allocated %d objects, budget %d", best, saxpyLaunchBudget)
	}
}

// BenchmarkSAXPYWarm is the launch above as a benchmark, for profiling
// the steady-state request path (`-cpuprofile`, `-memprofile`).
func BenchmarkSAXPYWarm(b *testing.B) {
	s, k := saxpyRig()
	for i := 0; i < 3; i++ {
		s.RunKernel(k, 50_000_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunKernel(k, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
