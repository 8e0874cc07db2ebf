package emerald

import (
	"strings"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/mathx"
	"emerald/internal/sched"
	"emerald/internal/shader"
)

// TestTable2 checks the SIMT core component set of paper Table 2: the
// five per-core caches plus a coherent-with-CPU L2 at the GPU level.
func TestTable2(t *testing.T) {
	core := CaseStudyIIGPU().Core
	for name, size := range map[string]int{
		"L1D": core.L1D.SizeBytes,
		"L1T": core.L1T.SizeBytes,
		"L1Z": core.L1Z.SizeBytes,
		"L1C": core.L1C.SizeBytes,
	} {
		if size <= 0 {
			t.Fatalf("Table 2: %s missing", name)
		}
	}
	if core.MaxWarps*32 != 2048 {
		t.Fatalf("Table 7: threads per core = %d, want 2048", core.MaxWarps*32)
	}
	if core.RegFile != 65536 {
		t.Fatalf("Table 7: registers per core = %d, want 65536", core.RegFile)
	}
}

// TestTable3 checks DASH's Table 3 parameters.
func TestTable3(t *testing.T) {
	cfg := sched.DefaultDASHConfig(4, false)
	if cfg.SchedulingUnit != 1000 || cfg.SwitchingUnit != 500 {
		t.Fatal("Table 3: scheduling/switching units wrong")
	}
	if cfg.QuantumLength != 1_000_000 {
		t.Fatal("Table 3: quantum length wrong")
	}
	if cfg.ClusterFactor != 0.15 {
		t.Fatal("Table 3: clustering factor wrong")
	}
	if cfg.EmergentThreshold != 0.8 || cfg.GPUEmergent != 0.9 {
		t.Fatal("Table 3: emergent thresholds wrong")
	}
}

// TestTable4 checks the two DRAM address mappings of Table 4.
func TestTable4(t *testing.T) {
	g := dram.LPDDR3Geometry(2)
	if got := dram.MappingPageStriped(g).String(); got != "Row:Rank:Bank:Column:Channel" {
		t.Fatalf("baseline mapping = %s", got)
	}
	if got := dram.MappingLineStriped(g).String(); got != "Row:Column:Rank:Bank:Channel" {
		t.Fatalf("HMC IP mapping = %s", got)
	}
	hmc := sched.HMCDRAM("hmc", g, dram.LPDDR3Timing(1333))
	if hmc.Assign == nil {
		t.Fatal("HMC must source-route channels")
	}
}

// TestTable5 checks the Case Study I system configuration.
func TestTable5(t *testing.T) {
	scene, err := SoCModel(M2Cube)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSoCConfig(scene)
	if cfg.NumCPUs != 4 {
		t.Fatalf("Table 5: CPUs = %d, want 4", cfg.NumCPUs)
	}
	if cfg.GPU.TotalCores() != 4 {
		t.Fatalf("Table 5: GPU SIMT cores = %d, want 4", cfg.GPU.TotalCores())
	}
	if cfg.GPU.L2.SizeBytes != 128*1024 {
		t.Fatalf("Table 5: GPU L2 = %d, want 128KB", cfg.GPU.L2.SizeBytes)
	}
	if cfg.GPU.OVBSize != 36*1024 {
		t.Fatalf("Table 5: OVB = %d, want 36KB", cfg.GPU.OVBSize)
	}
	if cfg.DRAM.Geometry.Channels != 2 {
		t.Fatalf("Table 5: DRAM channels = %d, want 2", cfg.DRAM.Geometry.Channels)
	}
}

// TestTable6 checks the Case Study I workload/config matrix.
func TestTable6(t *testing.T) {
	models := geom.AllSoCModels()
	if len(models) != 4 {
		t.Fatalf("Table 6: %d models, want 4", len(models))
	}
	if len(exp.AllMemConfigs()) != 4 {
		t.Fatal("Table 6: want BAS/DCB/DTB/HMC")
	}
}

// TestTable7 checks the Case Study II GPU configuration.
func TestTable7(t *testing.T) {
	cfg := CaseStudyIIGPU()
	if cfg.Clusters != 6 {
		t.Fatalf("Table 7: clusters = %d, want 6", cfg.Clusters)
	}
	if cfg.Clusters*cfg.CoresPerCluster*32 != 192 {
		t.Fatalf("Table 7: lanes = %d, want 192", cfg.Clusters*cfg.CoresPerCluster*32)
	}
	if cfg.L2.SizeBytes != 2*1024*1024 || cfg.L2.Ways != 32 {
		t.Fatal("Table 7: L2 must be 2MB 32-way")
	}
	if cfg.TC.Engines != 2 || cfg.TC.BinsPerEngine != 4 {
		t.Fatal("Table 7: TC engines/bins wrong")
	}
}

// TestTable8 checks the Case Study II workload list.
func TestTable8(t *testing.T) {
	scenes := geom.AllDFSLWorkloads()
	if len(scenes) != 6 {
		t.Fatalf("Table 8: %d workloads, want 6", len(scenes))
	}
	w5, _ := DFSLWorkload(W5SuzanneT)
	if !w5.Translucent {
		t.Fatal("Table 8: W5 must be translucent")
	}
}

// TestFacadeQuickRender exercises the public API end to end: standalone
// GPU + GL + scene, one frame, nonzero pixels.
func TestFacadeQuickRender(t *testing.T) {
	sys := NewStandaloneGPU(nil)
	ctx := NewGL(sys)
	const w, h = 64, 48
	if err := ctx.Viewport(w, h); err != nil {
		t.Fatal(err)
	}
	scene, err := DFSLWorkload(W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Clear(0xFF000000, true)
	ctx.SetMVP(scene.MVP(0, float32(w)/float32(h)))
	if err := ctx.DrawMesh(mesh); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunUntilIdle(500_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.GPU.FragsShaded() == 0 {
		t.Fatal("no fragments shaded through the facade")
	}
	if got := ctx.ColorSurface().ReadPixel(sys.Mem(), w/2, h/2); got == 0xFF000000 {
		t.Fatal("cube not visible at screen center")
	}
}

// TestFacadeKernel exercises the GPGPU path through the facade.
func TestFacadeKernel(t *testing.T) {
	sys := NewStandaloneGPU(nil)
	m := sys.Mem()
	const n = 128
	const a, bb, c, p = 0x1000, 0x2000, 0x3000, 0x4000
	for i := 0; i < n; i++ {
		m.WriteF32(a+uint64(i)*4, 1)
		m.WriteF32(bb+uint64(i)*4, 2)
	}
	m.WriteU32(p, a)
	m.WriteU32(p+4, bb)
	m.WriteU32(p+8, c)
	m.WriteU32(p+12, n)
	if _, err := sys.RunKernel(Kernel{
		Prog: KernelVecAdd, Blocks: 2, ThreadsPerBlock: 64, ParamBase: p,
	}, 100_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if m.ReadF32(c+uint64(i)*4) != 3 {
			t.Fatalf("vecadd[%d] wrong", i)
		}
	}
}

// TestFacadeCustomShader assembles a user shader through the facade.
func TestFacadeCustomShader(t *testing.T) {
	p, err := AssembleShader("user", KindCompute, `
		movs r0, %tid
		cvt.i2f r1, r0
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != shader.KindCompute || p.Len() != 3 {
		t.Fatal("custom shader assembly wrong")
	}
	// A kernel that can run off its end never reaches the GPU: launched,
	// its warps would never retire and the kernel would spin out the
	// cycle budget.
	if _, err := AssembleShader("k", KindCompute, "mov r0, 1.0"); err == nil || !strings.Contains(err.Error(), "pc 0") {
		t.Fatalf("a shader with no exit assembled (err = %v), want an error naming pc 0", err)
	}
}

// TestFacadeDFSLController sanity-checks the re-exported controller.
func TestFacadeDFSLController(t *testing.T) {
	d := NewDFSL(1, 3, 2)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		wt := d.NextWT()
		seen[wt] = true
		d.ObserveFrame(uint64(100 - wt)) // WT=3 fastest
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("eval phase did not cover WT 1..3: %v", seen)
	}
	if d.NextWT() != 3 {
		t.Fatalf("run phase WT = %d, want 3", d.NextWT())
	}
}

// TestFacadeMathHelpers checks camera helper exports.
func TestFacadeMathHelpers(t *testing.T) {
	m := LookAt(V3(0, 0, 5), V3(0, 0, 0), V3(0, 1, 0))
	p := Perspective(1, 1.5, 0.1, 100)
	mvp := p.Mul(m)
	v := mvp.MulVec(mathx.V4(0, 0, 0, 1))
	if v.W <= 0 {
		t.Fatal("origin should be in front of the camera")
	}
}
