package simt

import (
	"fmt"
	"testing"

	"emerald/internal/cache"
	"emerald/internal/mem"
	"emerald/internal/shader"
	"emerald/internal/stats"
)

// testEnv is an ideal warp environment for core unit tests.
type testEnv struct {
	memory    *mem.Memory
	shared    []byte
	constBase uint64
	retired   int

	attrs  map[int][4]float32 // slot -> value (per-lane identical)
	outs   map[[2]int][4]float32
	texVal [4]float32
}

func newTestEnv() *testEnv {
	return &testEnv{
		memory: mem.NewMemory(),
		shared: make([]byte, 4096),
		attrs:  make(map[int][4]float32),
		outs:   make(map[[2]int][4]float32),
	}
}

func (e *testEnv) AttrIn(lane, slot int) ([4]float32, uint64) {
	return e.attrs[slot], 0
}
func (e *testEnv) OutWrite(lane, slot int, val [4]float32) uint64 {
	e.outs[[2]int{lane, slot}] = val
	return 0
}
func (e *testEnv) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	return e.texVal, [4]uint64{0x9000}
}
func (e *testEnv) ZAddr(lane int) uint64 { return 0xA000 + uint64(lane)*4 }
func (e *testEnv) CAddr(lane int) uint64 { return 0xB000 + uint64(lane)*4 }
func (e *testEnv) ConstBase() uint64     { return e.constBase }
func (e *testEnv) SharedMem() []byte     { return e.shared }
func (e *testEnv) Memory() *mem.Memory   { return e.memory }
func (e *testEnv) Retired(w *Warp)       { e.retired++ }

// runCore ticks the core with an ideal next memory level until idle.
func runCore(t *testing.T, c *Core, budget uint64) uint64 {
	t.Helper()
	return runFrom(t, c, 0, budget)
}

// runFrom is runCore starting at a given cycle.
func runFrom(t *testing.T, c *Core, from, budget uint64) uint64 {
	t.Helper()
	for cycle := from; cycle < from+budget; cycle++ {
		c.Tick(cycle)
		for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
			r.Complete(cycle)
		}
		if c.Idle() {
			return cycle
		}
	}
	t.Fatalf("core did not go idle within %d cycles (%d warps)", budget, c.ActiveWarps())
	return budget
}

func launch(t *testing.T, c *Core, p *shader.Program, env WarpEnv, mask uint32,
	init func(lane int, th *shader.Thread)) *Warp {
	t.Helper()
	var sp [WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i), NTID: WarpSize}
	}
	w, err := c.Launch(p, env, -1, mask, sp, init)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestStraightLineProgram(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	p := shader.MustAssemble("t", shader.KindCompute, `
		movs r0, %tid
		cvt.i2f r1, r0
		mul r2, r1, 2.0
		add r2, r2, 1.0
		exit
	`)
	w := launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 10000)
	if !w.Done() || env.retired != 1 {
		t.Fatal("warp did not retire")
	}
	for lane := 0; lane < WarpSize; lane++ {
		want := float32(lane)*2 + 1
		if got := w.Threads[lane].F(shader.R(2)); got != want {
			t.Fatalf("lane %d r2 = %v, want %v", lane, got, want)
		}
	}
}

func TestScoreboardEnforcesRAW(t *testing.T) {
	// r2 depends on r1 (ALU latency); r3 on r2. Values must be correct
	// despite latencies.
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	p := shader.MustAssemble("t", shader.KindCompute, `
		mov r1, 3.0
		add r2, r1, 4.0
		mul r3, r2, r2
		exit
	`)
	w := launch(t, c, p, env, 1, nil)
	cycles := runCore(t, c, 10000)
	if got := w.Threads[0].F(shader.R(3)); got != 49 {
		t.Fatalf("r3 = %v, want 49", got)
	}
	// Two dependent ALU ops at latency 4 need > 8 cycles end to end.
	if cycles < 8 {
		t.Fatalf("dependent chain completed too fast: %d cycles", cycles)
	}
}

func TestDivergenceReconvergence(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	// Even lanes take one path, odd lanes the other; all reconverge and
	// add 100 at the end.
	p := shader.MustAssemble("t", shader.KindCompute, `
		movs r0, %tid
		and  r1, r0, 1
		setp.eq.i p0, r1, 0
		ssy join
		@p0 bra even
		mov r2, 10.0        ; odd path
		bra join
	even:
		mov r2, 20.0        ; even path
	join:
		add r2, r2, 100.0
		exit
	`)
	w := launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 10000)
	for lane := 0; lane < WarpSize; lane++ {
		want := float32(110)
		if lane%2 == 0 {
			want = 120
		}
		if got := w.Threads[lane].F(shader.R(2)); got != want {
			t.Fatalf("lane %d r2 = %v, want %v", lane, got, want)
		}
	}
	if c.divergences.Value() == 0 {
		t.Fatal("divergence not recorded")
	}
}

func TestDivergentLoop(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	// Each lane iterates tid+1 times.
	p := shader.MustAssemble("t", shader.KindCompute, `
		movs r0, %tid
		iadd r1, r0, 1     ; trip count
		mov  r2, 0.0       ; accumulator (float)
		mov  r3, r1        ; counter
	loop:
		add  r2, r2, 1.0
		isub r3, r3, 1
		setp.gt.i p0, r3, 0
		ssy done
		@p0 bra loop
	done:
		exit
	`)
	w := launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 100000)
	for lane := 0; lane < WarpSize; lane++ {
		if got := w.Threads[lane].F(shader.R(2)); got != float32(lane+1) {
			t.Fatalf("lane %d acc = %v, want %v", lane, got, float32(lane+1))
		}
	}
}

func TestNestedDivergence(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	// Outer split on bit0, inner split on bit1: four distinct values.
	p := shader.MustAssemble("t", shader.KindCompute, `
		movs r0, %tid
		and  r1, r0, 1
		and  r2, r0, 2
		setp.eq.i p0, r1, 0
		setp.eq.i p1, r2, 0
		ssy outer_join
		@p0 bra outer_even
		; odd
		ssy inner_join_o
		@p1 bra oi
		mov r3, 1.0
		bra inner_join_o
	oi:
		mov r3, 2.0
	inner_join_o:
		bra outer_join
	outer_even:
		ssy inner_join_e
		@p1 bra ei
		mov r3, 3.0
		bra inner_join_e
	ei:
		mov r3, 4.0
	inner_join_e:
	outer_join:
		add r3, r3, 10.0
		exit
	`)
	w := launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 100000)
	for lane := 0; lane < WarpSize; lane++ {
		var want float32
		switch {
		case lane%2 == 1 && lane&2 != 0:
			want = 11
		case lane%2 == 1:
			want = 12
		case lane&2 != 0:
			want = 13
		default:
			want = 14
		}
		if got := w.Threads[lane].F(shader.R(3)); got != want {
			t.Fatalf("lane %d r3 = %v, want %v", lane, got, want)
		}
	}
}

func TestGlobalLoadStoreSAXPY(t *testing.T) {
	env := newTestEnv()
	reg := stats.NewRegistry()
	c := NewCore(DefaultCoreConfig(), reg)
	// y[i] = 2*x[i] + y[i] for 32 elements.
	xBase, yBase := uint64(0x1000), uint64(0x2000)
	for i := 0; i < 32; i++ {
		env.memory.WriteF32(xBase+uint64(i)*4, float32(i))
		env.memory.WriteF32(yBase+uint64(i)*4, float32(100+i))
	}
	p := shader.MustAssemble("saxpy", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		iadd r2, r1, 0x1000
		iadd r3, r1, 0x2000
		ldg  r4, [r2]
		ldg  r5, [r3]
		mad  r6, r4, 2.0, r5
		stg  [r3], r6
		exit
	`)
	launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 100000)
	for i := 0; i < 32; i++ {
		want := float32(2*i + 100 + i)
		if got := env.memory.ReadF32(yBase + uint64(i)*4); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
	// Coalescing: 32 consecutive 4-byte loads = one 128B line per array.
	if acc := l1Stat(reg, c, c.L1D, "accesses"); acc > 6 {
		t.Fatalf("L1D accesses = %d, want few (coalesced)", acc)
	}
}

func TestSharedMemoryAndBarrier(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	// Warp A stores tid to shared; warp B (same block) reads it after a
	// barrier. With a single warp per launch here, use two warps in one
	// block: warp 0 writes, both hit bar, warp 1 reads.
	write := shader.MustAssemble("w", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		cvt.i2f r2, r0
		sts  [r1], r2
		bar
		exit
	`)
	read := shader.MustAssemble("r", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		bar
		lds  r2, [r1]
		exit
	`)
	var sp [WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i)}
	}
	_, err := c.Launch(write, env, 7, FullMask, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := c.Launch(read, env, 7, FullMask, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	runCore(t, c, 100000)
	for lane := 0; lane < WarpSize; lane++ {
		if got := wr.Threads[lane].F(shader.R(2)); got != float32(lane) {
			t.Fatalf("lane %d read %v from shared, want %v", lane, got, float32(lane))
		}
	}
}

func TestPartialMaskLaunch(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	p := shader.MustAssemble("t", shader.KindCompute, `
		movs r0, %tid
		cvt.i2f r1, r0
		exit
	`)
	w := launch(t, c, p, env, 0x0000FFFF, nil) // 16 lanes
	runCore(t, c, 10000)
	if !w.Done() {
		t.Fatal("warp with partial mask did not finish")
	}
	if got := c.threadsRetired.Value(); got != 16 {
		t.Fatalf("threads retired = %d, want 16", got)
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.MaxWarps = 2
	c := NewCore(cfg, nil)
	env := newTestEnv()
	p := shader.MustAssemble("t", shader.KindCompute, "mov r1, 1.0\nexit")
	launch(t, c, p, env, 1, nil)
	launch(t, c, p, env, 1, nil)
	if c.CanLaunch(p) {
		t.Fatal("third warp must be rejected by MaxWarps")
	}
	// Register pressure limit.
	cfg = DefaultCoreConfig()
	cfg.RegFile = 64 * WarpSize // one 64-reg warp worth
	c = NewCore(cfg, nil)
	big := shader.MustAssemble("big", shader.KindCompute, "mov r63, 1.0\nexit")
	launch(t, c, big, env, 1, nil)
	if c.CanLaunch(big) {
		t.Fatal("register file exhaustion must reject launch")
	}
}

func TestGraphicsOpsThroughEnv(t *testing.T) {
	env := newTestEnv()
	env.attrs[0] = [4]float32{0.25, 0.5, 0.75, 1}
	env.texVal = [4]float32{1, 0, 0, 1}
	reg := stats.NewRegistry()
	c := NewCore(DefaultCoreConfig(), reg)
	p := shader.MustAssemble("fs", shader.KindFragment, `
		attr4 r0, 0
		tex4  r4, 0, r0, r1
		zld   r8
		setp.lt.f p0, r8, 0.5
		pack4 r9, r4
		fbst  r9
		zst   r8
		exit
	`)
	// Seed depth buffer values at the env's ZAddrs.
	for lane := 0; lane < WarpSize; lane++ {
		env.memory.WriteF32(0xA000+uint64(lane)*4, 0.25)
	}
	w := launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 100000)
	if got := w.Threads[3].F(shader.R(8)); got != 0.25 {
		t.Fatalf("zld = %v, want 0.25", got)
	}
	// fbst wrote packed red to each CAddr.
	want := shader.PackRGBA8(1, 0, 0, 1)
	for lane := 0; lane < 4; lane++ {
		if got := env.memory.ReadU32(0xB000 + uint64(lane)*4); got != want {
			t.Fatalf("lane %d fb = %#x, want %#x", lane, got, want)
		}
	}
	// Texture accesses went through L1T.
	if l1Stat(reg, c, c.L1T, "accesses") == 0 {
		t.Fatal("tex4 must access L1T")
	}
	if l1Stat(reg, c, c.L1Z, "accesses") == 0 {
		t.Fatal("zld/zst must access L1Z")
	}
}

func TestVertexOutputTraffic(t *testing.T) {
	env := newTestEnv()
	outAddrs := 0
	venv := &vsEnv{testEnv: env, onOut: func() { outAddrs++ }}
	c := NewCore(DefaultCoreConfig(), nil)
	p := shader.MustAssemble("vs", shader.KindVertex, `
		mov r0, 1.0
		mov r1, 2.0
		mov r2, 3.0
		mov r3, 4.0
		out4 0, r0
		exit
	`)
	launch(t, c, p, venv, FullMask, nil)
	runCore(t, c, 10000)
	if outAddrs != WarpSize {
		t.Fatalf("out4 callbacks = %d, want %d", outAddrs, WarpSize)
	}
}

// vsEnv overrides OutWrite to return memory addresses (vertex path).
type vsEnv struct {
	*testEnv
	onOut func()
}

func (e *vsEnv) OutWrite(lane, slot int, val [4]float32) uint64 {
	e.onOut()
	return 0xC000 + uint64(lane)*16
}

func TestKillDiscardsLanes(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	p := shader.MustAssemble("fs", shader.KindFragment, `
		movs r0, %tid
		and  r1, r0, 1
		setp.eq.i p0, r1, 1
		@p0 kill
		mov r2, 7.0
		fbst r2
		exit
	`)
	w := launch(t, c, p, env, FullMask, nil)
	runCore(t, c, 10000)
	if !w.Done() {
		t.Fatal("warp not done")
	}
	// Only even lanes survive to write; odd lanes' CAddr untouched (zero).
	if env.memory.ReadU32(0xB000+4) != 0 {
		t.Fatal("killed lane wrote to framebuffer")
	}
	if env.memory.ReadU32(0xB000) == 0 {
		t.Fatal("surviving lane did not write")
	}
}

func TestLRRSchedulerAlsoWorks(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.GTO = false
	c := NewCore(cfg, nil)
	env := newTestEnv()
	p := shader.MustAssemble("t", shader.KindCompute, `
		mov r1, 1.0
		add r1, r1, 1.0
		add r1, r1, 1.0
		exit
	`)
	for i := 0; i < 4; i++ {
		launch(t, c, p, env, FullMask, nil)
	}
	runCore(t, c, 10000)
	if env.retired != 4 {
		t.Fatalf("retired = %d, want 4", env.retired)
	}
}

// runCoreSlow ticks the core against a next level that accepts at most
// one request per cycle, keeping a bounded output port under sustained
// backpressure. It returns every request the next level served.
func runCoreSlow(t *testing.T, c *Core, budget uint64) []*mem.Request {
	t.Helper()
	var served []*mem.Request
	for cycle := uint64(0); cycle < budget; cycle++ {
		c.Tick(cycle)
		if r := c.Out.Pop(); r != nil {
			r.Complete(cycle)
			served = append(served, r)
		}
		if c.Idle() && c.Out.Len() == 0 {
			return served
		}
	}
	t.Fatalf("core did not go idle within %d cycles (%d warps, %d tx queued, %d out)",
		budget, c.ActiveWarps(), c.txLen, c.Out.Len())
	return served
}

// Regression: L1 miss traffic must never be dropped when the core
// output port is full — a dropped fill request leaves its MSHR waiting
// forever and hangs the owning warp. Eight warps of loads and stores
// funnel through a single-entry port drained one request per cycle;
// every warp must still retire and every store must land.
func TestBoundedOutputPortNoFillLoss(t *testing.T) {
	env := newTestEnv()
	c := NewCore(DefaultCoreConfig(), nil)
	c.Out = mem.NewQueue(1)
	p := shader.MustAssemble("incr", shader.KindCompute, `
		movs r0, %tid
		shl  r1, r0, 2
		iadd r2, r1, r7    ; r7 preloaded with a per-warp base address
		ldg  r3, [r2]
		add  r3, r3, 1.0
		stg  [r2], r3
		exit
	`)
	const warps = 8
	for wi := 0; wi < warps; wi++ {
		base := uint32(0x10000 + wi*0x1000)
		for lane := 0; lane < WarpSize; lane++ {
			env.memory.WriteF32(uint64(base)+uint64(lane)*4, float32(wi*100+lane))
		}
		launch(t, c, p, env, FullMask, func(lane int, th *shader.Thread) {
			th.SetU(7, base)
		})
	}
	runCoreSlow(t, c, 500000)
	if env.retired != warps {
		t.Fatalf("retired = %d, want %d", env.retired, warps)
	}
	for wi := 0; wi < warps; wi++ {
		base := uint64(0x10000 + wi*0x1000)
		for lane := 0; lane < WarpSize; lane++ {
			want := float32(wi*100+lane) + 1
			if got := env.memory.ReadF32(base + uint64(lane)*4); got != want {
				t.Fatalf("warp %d lane %d = %v, want %v", wi, lane, got, want)
			}
		}
	}
	if n := c.L1D.PendingMisses(); n != 0 {
		t.Fatalf("L1D MSHRs leaked: %d still pending", n)
	}
}

// Regression: raw vertex-output stores must stay queued when the
// output port is full instead of being dropped. The same workload run
// against an unbounded port and a single-entry port must put the same
// number of stores on the wire.
func TestRawStoreBackpressureNoLoss(t *testing.T) {
	run := func(bounded bool) int {
		env := newTestEnv()
		venv := &vsEnv{testEnv: env, onOut: func() {}}
		c := NewCore(DefaultCoreConfig(), nil)
		if bounded {
			c.Out = mem.NewQueue(1)
		}
		p := shader.MustAssemble("vs", shader.KindVertex, `
			mov r0, 1.0
			mov r1, 2.0
			mov r2, 3.0
			mov r3, 4.0
			out4 0, r0
			exit
		`)
		launch(t, c, p, venv, FullMask, nil)
		served := runCoreSlow(t, c, 100000)
		writes := 0
		for _, r := range served {
			if r.Kind == mem.Write {
				writes++
			}
		}
		return writes
	}
	unbounded, bounded := run(false), run(true)
	if unbounded == 0 || unbounded != bounded {
		t.Fatalf("raw stores on the wire: unbounded=%d bounded=%d; want equal and nonzero",
			unbounded, bounded)
	}
}

// l1Stat reads one of c's L1 counters from the registry c was built
// with.
func l1Stat(reg *stats.Registry, c *Core, l1 *cache.Cache, name string) int64 {
	return reg.Value(fmt.Sprintf("core%d_%d.%s.%s", c.Cfg.ClusterID, c.Cfg.ID, l1.Config().Name, name))
}
