package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"emerald/internal/cache"
	"emerald/internal/cpu"
	"emerald/internal/dram"
	"emerald/internal/exp"
	"emerald/internal/fleet"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/interconnect"
	"emerald/internal/mathx"
	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/raster"
	"emerald/internal/sample"
	"emerald/internal/sched"
	"emerald/internal/shader"
	"emerald/internal/simt"
	"emerald/internal/soc"
	"emerald/internal/stats"
	"emerald/internal/sweep"
	"emerald/internal/trace"
)

// The isolated layer drivers: each calls only one package's exported
// API on seeded inputs and reports host time per unit of that layer's
// work. They are the unit costs the est_share columns multiply counts
// by, and the numbers a layer-local optimisation should move first.

// driverReps is how many times each driver body runs; the median rep is
// reported.
const driverReps = 5

type drv struct {
	ms     metricSet
	seed   uint64
	shrink int
	dir    string
}

// n scales an iteration count down by shrink.
func (d *drv) n(full int) int { return shrunk(full, d.shrink) }

// measure runs body driverReps times; body returns how many units of work
// it did. The metric is the median time per unit.
func (d *drv) measure(name string, body func() int) {
	vals := make([]float64, 0, driverReps)
	units := 0
	for i := 0; i < driverReps; i++ {
		t0 := time.Now()
		u := body()
		el := time.Since(t0)
		if u < 1 {
			u = 1
		}
		units += u
		vals = append(vals, inUnit(el, metricByName[name].unit)/float64(u))
	}
	d.ms.set(name, median(vals), units)
}

// driver is one isolated layer driver.
type driver func(*drv) error

// estDrivers price the layers estimateShares attributes host time to.
// The four workloads with registry counts run them in their traced run,
// so each multiplies its counts by unit costs measured in its own
// process; every other driver runs in exactly one workload, the one its
// layer should move (see the workloads table in main.go).
var estDrivers = []driver{(*drv).simtTick, (*drv).cache, (*drv).interconnect, (*drv).dram, (*drv).raster, (*drv).cpu}

// withEst is estDrivers followed by a workload's own drivers.
func withEst(own ...driver) []driver {
	return append(append([]driver{}, estDrivers...), own...)
}

// runDrivers runs a workload's drivers. A driver that cannot build its
// inputs reports nothing (the metric then reads 0) and says why on
// stderr.
func runDrivers(ms metricSet, drivers []driver, seed uint64, shrink int, outDir string) {
	dir, err := os.MkdirTemp(outDir, "tmp-drivers-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: drivers: scratch dir:", err)
		return
	}
	defer os.RemoveAll(dir)
	d := &drv{ms: ms, seed: seed, shrink: shrink, dir: dir}
	for _, f := range drivers {
		if err := f(d); err != nil {
			fmt.Fprintln(os.Stderr, "bench: driver:", err)
		}
	}
}

// drvEnv is an ideal warp environment: attributes and textures are
// constants, raster-op addresses are lane-linear.
type drvEnv struct {
	memory *mem.Memory
	shared []byte
}

func (e *drvEnv) AttrIn(lane, slot int) ([4]float32, uint64)     { return [4]float32{1, 2, 3, 4}, 0 }
func (e *drvEnv) OutWrite(lane, slot int, val [4]float32) uint64 { return 0 }
func (e *drvEnv) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	return [4]float32{u, v, 0, 1}, [4]uint64{0x9000}
}
func (e *drvEnv) ZAddr(lane int) uint64 { return 0xA000 + uint64(lane)*4 }
func (e *drvEnv) CAddr(lane int) uint64 { return 0xB000 + uint64(lane)*4 }
func (e *drvEnv) ConstBase() uint64     { return 0 }
func (e *drvEnv) SharedMem() []byte     { return e.shared }
func (e *drvEnv) Memory() *mem.Memory   { return e.memory }
func (e *drvEnv) Retired(*simt.Warp)    {}

// Driver kernels. The trip count rides in through %ntid (FuncRunner
// takes no register preload); r7 holds the warp's base address,
// preloaded at launch.
const (
	aluKernelSrc = `
	movs r0, %tid
	movs r3, %ntid
	cvt.i2f r1, r0
	mov  r2, 0.5
	mov  r4, 1.0001
loop:
	mad  r1, r1, r4, r2
	add  r2, r2, r1
	mul  r5, r2, r4
	isub r3, r3, 1
	setp.gt.i p0, r3, 0
	ssy  done
	@p0 bra loop
done:
	exit
`
	aluKernelLoopLen = 7

	memKernelSrc = `
	movs r0, %tid
	movs r3, %ntid
	shl  r1, r0, 2
	iadd r1, r1, r7
loop:
	ldg  r2, [r1]
	add  r2, r2, 1.0
	stg  [r1], r2
	iadd r1, r1, 4096
	isub r3, r3, 1
	setp.gt.i p0, r3, 0
	ssy  done
	@p0 bra loop
done:
	exit
`
)

// coreRun fills a core with warps of prog and ticks it to idle against
// an ideal next memory level, returning the ticks it took.
func coreRun(prog *shader.Program, trips int) (int, error) {
	c := simt.NewCore(simt.DefaultCoreConfig(), nil)
	env := &drvEnv{memory: mem.NewMemory()}
	var sp [simt.WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i), NTID: uint32(trips)}
	}
	for w := 0; c.CanLaunch(prog); w++ {
		base := uint32(0x100_0000 + w*simt.WarpSize*4)
		if _, err := c.Launch(prog, env, -1, simt.FullMask, sp, func(_ int, t *shader.Thread) {
			t.SetU(7, base)
		}); err != nil {
			return 0, err
		}
	}
	for cycle := uint64(0); cycle < 50_000_000; cycle++ {
		c.Tick(cycle)
		for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
			r.Complete(cycle)
		}
		if c.Idle() {
			return int(cycle) + 1, nil
		}
	}
	return 0, fmt.Errorf("simt driver: core never went idle")
}

func (d *drv) simtTick() error {
	alu, err := shader.Assemble("bench_alu", shader.KindCompute, aluKernelSrc)
	if err != nil {
		return err
	}
	memk, err := shader.Assemble("bench_mem", shader.KindCompute, memKernelSrc)
	if err != nil {
		return err
	}
	var runErr error
	run := func(p *shader.Program, trips int) func() int {
		return func() int {
			ticks, err := coreRun(p, trips)
			if err != nil {
				runErr = err
			}
			return ticks
		}
	}
	d.measure("simt.tick_ns_alu", run(alu, d.n(100)))
	d.measure("simt.tick_ns_mem", run(memk, d.n(40)))
	return runErr
}

func (d *drv) simtFunc() error {
	alu, err := shader.Assemble("bench_alu", shader.KindCompute, aluKernelSrc)
	if err != nil {
		return err
	}
	trips := d.n(2000)
	env := &drvEnv{memory: mem.NewMemory()}
	var sp [simt.WarpSize]shader.Special
	for i := range sp {
		sp[i] = shader.Special{TID: uint32(i), NTID: uint32(trips)}
	}
	var fr simt.FuncRunner
	d.measure("simt.func_instr_ns", func() int {
		const warps = 16
		for w := 0; w < warps; w++ {
			fr.Exec(alu, env, simt.FullMask, sp)
		}
		return warps * trips * aluKernelLoopLen
	})
	return nil
}

func (d *drv) shader() error {
	var alu []shader.Instr
	for _, in := range shader.VSTransform.Code {
		if c := shader.ClassOf(in.Op); (c == shader.ClassALU || c == shader.ClassSFU) && in.Op != shader.OpMovS {
			alu = append(alu, in)
		}
	}
	if len(alu) == 0 {
		return fmt.Errorf("shader driver: VSTransform has no ALU instructions")
	}
	var th shader.Thread
	r := newRNG(d.seed, "shader")
	for i := uint8(0); i < 32; i++ {
		th.SetF(i, float32(r.unit()+0.5))
	}
	passes := d.n(20000)
	d.measure("shader.alu_ns", func() int {
		for p := 0; p < passes; p++ {
			for _, in := range alu {
				shader.ExecALU(in, &th, shader.Special{})
			}
		}
		return passes * len(alu)
	})
	var asmErr error
	d.measure("shader.assemble_us", func() int {
		const n = 20
		for i := 0; i < n; i++ {
			if _, err := shader.Assemble("bench_asm", shader.KindCompute, memKernelSrc); err != nil {
				asmErr = err
			}
		}
		return n
	})
	return asmErr
}

// cacheStream drives one L1T-shaped cache with reads of seeded lines
// drawn from a working set of the given size, completing every miss at
// once (an ideal next level) and ticking the cache each access.
func (d *drv) cacheStream(name string, wsBytes, accesses int) {
	cfg := simt.DefaultCoreConfig().L1T
	cfg.Name = "drv"
	c := cache.New(cfg, nil)
	c.OnReady = func(any, uint64) {}
	lines := wsBytes / cfg.LineBytes
	r := newRNG(d.seed, name)
	addrs := make([]uint64, accesses)
	for i := range addrs {
		addrs[i] = uint64(r.intn(lines)) * uint64(cfg.LineBytes)
	}
	cycle := uint64(0)
	step := func(a uint64) {
		c.Access(cycle, a, mem.Read, nil)
		for q := c.Out.Pop(); q != nil; q = c.Out.Pop() {
			q.Complete(cycle)
		}
		c.Tick(cycle)
		cycle++
	}
	for l := 0; l < lines; l++ { // fill what fits before timing
		step(uint64(l) * uint64(cfg.LineBytes))
	}
	d.measure(name, func() int {
		for _, a := range addrs {
			step(a)
		}
		return len(addrs)
	})
}

func (d *drv) cache() error {
	size := simt.DefaultCoreConfig().L1T.SizeBytes
	d.cacheStream("cache.access_hit_ns", size/2, d.n(100_000))
	d.cacheStream("cache.access_miss_ns", size*4, d.n(50_000))
	c := cache.New(simt.DefaultCoreConfig().L1T, nil)
	ticks := d.n(500_000)
	d.measure("cache.tick_ns", func() int {
		for i := 0; i < ticks; i++ {
			c.Tick(uint64(i))
		}
		return ticks
	})
	return nil
}

func (d *drv) interconnect() error {
	const ports = 6
	x := interconnect.New(interconnect.Config{Name: "drv", Ports: ports, Latency: 8, Width: 2, Depth: 8},
		func(*mem.Request) bool { return true }, nil)
	r := newRNG(d.seed, "noc")
	ticks := d.n(200_000)
	reqs := make([]mem.Request, ticks)
	for i := range reqs {
		reqs[i] = mem.Request{Addr: r.next() &^ 127, Size: 128, Client: mem.ClientGPU, ClientID: r.intn(ports)}
	}
	cycle := uint64(0)
	d.measure("interconnect.tick_ns", func() int {
		for i := range reqs {
			x.Push(reqs[i].ClientID, &reqs[i]) // a full port drops the offer, as upstream would retry
			x.Tick(cycle)
			cycle++
		}
		return ticks
	})
	return nil
}

// dramStream offers the controller one request per cycle from next and
// ticks it; requests the queues refuse are dropped.
func dramStream(c *dram.Controller, cycle *uint64, ticks int, next func() *mem.Request) {
	for i := 0; i < ticks; i++ {
		if next != nil {
			c.Push(next())
		}
		c.Tick(*cycle)
		*cycle++
	}
}

func (d *drv) dram() error {
	cfg := dram.Config{Name: "drv", Geometry: dram.LPDDR3Geometry(4), Timing: dram.LPDDR3Timing(1600)}
	ticks := d.n(100_000)
	for _, s := range []struct {
		name   string
		random bool
	}{{"dram.tick_ns_stream", false}, {"dram.tick_ns_random", true}} {
		c := dram.NewController(cfg, nil)
		r := newRNG(d.seed, s.name)
		var seq, cycle uint64
		d.measure(s.name, func() int {
			dramStream(c, &cycle, ticks, func() *mem.Request {
				req := &mem.Request{Size: 128, Client: mem.ClientGPU}
				if s.random {
					req.Addr = (r.next() % (256 << 20)) &^ 127
				} else {
					req.Addr = seq
					seq += 128
				}
				return req
			})
			return ticks
		})
	}
	idle := dram.NewController(cfg, nil)
	var cycle uint64
	idleTicks := d.n(1_000_000)
	d.measure("dram.tick_ns_idle", func() int {
		dramStream(idle, &cycle, idleTicks, nil)
		return idleTicks
	})
	return nil
}

func (d *drv) sched() error {
	dcfg, dash := sched.DASHDRAM("drv", dram.LPDDR3Geometry(2), dram.LPDDR3Timing(266),
		sched.DefaultDASHConfig(4, true))
	c := dram.NewController(dcfg, nil)
	r := newRNG(d.seed, "dash")
	var cycle uint64
	ticks := d.n(100_000)
	// The controller calls DASH.Pick whenever a channel can issue, so a
	// saturated mixed CPU/GPU stream prices the pick path.
	d.measure("sched.dash_pick_ns", func() int {
		dramStream(c, &cycle, ticks, func() *mem.Request {
			req := &mem.Request{Addr: (r.next() % (64 << 20)) &^ 127, Size: 128, Client: mem.ClientGPU}
			if r.next()&1 == 0 {
				req.Client, req.ClientID, req.Size = mem.ClientCPU, r.intn(4), 64
			}
			return req
		})
		return ticks
	})
	dashTicks := d.n(1_000_000)
	d.measure("sched.dash_tick_ns", func() int {
		for i := 0; i < dashTicks; i++ {
			dash.Tick(cycle)
			cycle++
		}
		return dashTicks
	})
	return nil
}

// scenePrims assembles a scene's triangles in clip space for frame 0.
func scenePrims(scene *geom.Scene, aspect float32) []raster.Primitive {
	mvp := scene.MVP(0, aspect)
	m := scene.Mesh
	prims := make([]raster.Primitive, 0, m.TriangleCount())
	for t := 0; t+2 < len(m.Indices); t += 3 {
		p := raster.Primitive{ID: uint32(t / 3)}
		for k := 0; k < 3; k++ {
			i := m.Indices[t+k]
			pos := m.Positions[i]
			p.V[k].Clip = mvp.MulVec(mathx.V4(pos.X, pos.Y, pos.Z, 1))
			if int(i) < len(m.UVs) {
				p.V[k].Attrs[0] = [4]float32{m.UVs[i].X, m.UVs[i].Y, 0, 1}
			}
		}
		prims = append(prims, p)
	}
	return prims
}

func (d *drv) raster() error {
	vp := raster.Viewport{Width: fragWidth, Height: fragHeight}
	var prims []raster.Primitive
	for _, id := range []int{geom.W1Sibenik, geom.W3Cube} {
		scene, err := geom.DFSLWorkload(id)
		if err != nil {
			return err
		}
		prims = append(prims, scenePrims(scene, float32(fragWidth)/float32(fragHeight))...)
	}
	passes := d.n(20)
	var clipped []raster.Primitive
	d.measure("raster.clip_ns_per_prim", func() int {
		for p := 0; p < passes; p++ {
			clipped = clipped[:0]
			for _, pr := range prims {
				out, _ := raster.ClipCull(pr, true)
				clipped = append(clipped, out...)
			}
		}
		return passes * len(prims)
	})
	if len(clipped) == 0 {
		return fmt.Errorf("raster driver: every primitive was culled")
	}
	var tris []*raster.SetupTri
	d.measure("raster.setup_ns_per_prim", func() int {
		for p := 0; p < passes; p++ {
			tris = tris[:0]
			for _, pr := range clipped {
				if t, ok := raster.Setup(pr, vp); ok {
					tris = append(tris, t)
				}
			}
		}
		return passes * len(clipped)
	})
	fine := d.n(4)
	d.measure("raster.fine_ns_per_frag", func() int {
		frags := 0
		for p := 0; p < fine; p++ {
			for _, t := range tris {
				raster.Rasterize(t, vp, func(rt *raster.RasterTile) { frags += len(rt.Frags) })
			}
		}
		return frags
	})
	return nil
}

// funcContext is a GL context whose draws execute functionally on m.
func funcContext(m *mem.Memory, base, size uint64) *gl.Context {
	ctx := gl.NewContext(m, base, size)
	ctx.Submit = func(call *gpu.DrawCall) error { return gpu.ExecuteDrawFunc(m, call, nil) }
	return ctx
}

func (d *drv) gpuFunc() error {
	scene, err := fragScene(d.seed)
	if err != nil {
		return err
	}
	ctx := funcContext(mem.NewMemory(), 0x1000_0000, 256<<20)
	mesh, err := bindScene(ctx, scene)
	if err != nil {
		return err
	}
	frames := d.n(fragRoundFrames)
	var drawErr error
	d.measure("gpu.func_draw_ms", func() int {
		for i := 0; i < frames; i++ {
			ctx.Clear(clearColor, true)
			ctx.SetMVP(scene.MVP(i, float32(fragWidth)/float32(fragHeight)))
			if err := ctx.DrawMesh(mesh); err != nil {
				drawErr = err
			}
		}
		return frames
	})
	return drawErr
}

func (d *drv) mem() error {
	m := mem.NewMemory()
	const span = 8 << 20
	buf := make([]byte, 64)
	for a := uint64(0); a < span; a += 4096 { // materialise the pages
		m.WriteU32(a, uint32(a))
	}
	r := newRNG(d.seed, "mem")
	n := d.n(200_000)
	// Half the accesses are sequential lines, half straddle a page.
	addrs := make([]uint64, n)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = uint64(i) * 64 % span
		} else {
			addrs[i] = uint64(1+r.intn(span/4096-1))*4096 - 32
		}
	}
	d.measure("mem.read_ns", func() int {
		for _, a := range addrs {
			m.Read(a, buf)
		}
		return n
	})
	d.measure("mem.write_ns", func() int {
		for _, a := range addrs {
			m.Write(a, buf)
		}
		return n
	})
	v := mem.NewView(m)
	d.measure("mem.view_read_ns", func() int {
		for _, a := range addrs {
			v.Read(a, buf)
		}
		return n
	})
	return nil
}

func (d *drv) cpu() error {
	c := cpu.NewCore(cpu.DefaultConfig(0), cpu.AppFrameLoop, mem.NewMemory(), nil)
	c.Regs[10], c.Regs[11] = 0x100_0000, 64*1024
	c.Regs[12], c.Regs[13], c.Regs[14] = 0x200_0000, 2048, 1
	// The stub driver: fences are signalled, submits succeed and vsync
	// returns at once, so the core never sleeps.
	c.Sys = func(*cpu.Core, int32) (uint32, bool) { return 1, true }
	var cycle uint64
	ticks := d.n(300_000)
	d.measure("cpu.tick_ns", func() int {
		for i := 0; i < ticks; i++ {
			c.Tick(cycle)
			for r := c.Out.Pop(); r != nil; r = c.Out.Pop() {
				r.Complete(cycle)
			}
			cycle++
		}
		return ticks
	})
	if c.Instructions() == 0 {
		return fmt.Errorf("cpu driver: the core retired nothing")
	}
	return nil
}

// par prices the event wheel's per-slot due check. Group.Run's dispatch
// cost is measured in the par arm's child process instead: it can hang.
func (d *drv) par() error {
	const slots = 8
	w := par.NewWheel(slots)
	for s := 0; s < slots; s++ {
		w.Arm(s, uint64(1000*s))
	}
	checks := d.n(5_000_000)
	due := 0
	d.measure("par.wheel_due_ns", func() int {
		for i := 0; i < checks; i++ {
			if w.Due(i%slots, uint64(i%8000)) {
				due++
			}
		}
		return checks
	})
	if due == 0 {
		return fmt.Errorf("par driver: no slot was ever due")
	}
	return nil
}

func (d *drv) trace() error {
	opt := exp.Smoke()
	frames := 8
	tr, err := exp.RecordWorkloadTrace(geom.W3Cube, frames, opt)
	if err != nil {
		return err
	}
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: []int{frames / 2}})
	if err != nil {
		return err
	}
	cp := pass.Checkpoints[frames/2]
	var buf bytes.Buffer
	var ioErr error
	const saves = 4
	d.measure("trace.ckpt_save_ms", func() int {
		for i := 0; i < saves; i++ {
			buf.Reset()
			if err := cp.Save(&buf); err != nil {
				ioErr = err
			}
		}
		return saves
	})
	d.measure("trace.ckpt_load_ms", func() int {
		for i := 0; i < saves; i++ {
			if _, err := trace.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
				ioErr = err
			}
		}
		return saves
	})
	d.measure("trace.replay_ms_per_frame", func() int {
		ctx := funcContext(mem.NewMemory(), sample.DefaultHeapBase, sample.DefaultHeapSize)
		if err := trace.Replay(tr, ctx, trace.ReplayAll()); err != nil {
			ioErr = err
		}
		return frames
	})
	return ioErr
}

func (d *drv) sweep() error {
	r := newRNG(d.seed, "sweep")
	specs := make([]sweep.Spec, d.n(200))
	for i := range specs {
		specs[i] = sweep.Spec{Kind: sweep.KindCS1, Scale: "smoke", Model: 1 + r.intn(4),
			Config: exp.AllMemConfigs()[r.intn(4)].String(), Mbps: 100 + i}
	}
	keys := make([]string, len(specs))
	d.measure("sweep.spec_key_ns", func() int {
		for i, s := range specs {
			keys[i] = s.Key()
		}
		return len(specs)
	})
	store, err := sweep.NewStore(filepath.Join(d.dir, "store"))
	if err != nil {
		return err
	}
	results := make([]*sweep.Result, len(specs))
	for i, s := range specs {
		results[i] = &sweep.Result{Spec: s.Canonical(), CS1: &soc.Results{Config: s.Config, FramesShown: 1}}
	}
	var ioErr error
	d.measure("sweep.store_put_us", func() int {
		for i, k := range keys {
			if _, err := store.Put(k, results[i]); err != nil {
				ioErr = err
			}
		}
		return len(keys)
	})
	d.measure("sweep.store_get_us", func() int {
		for _, k := range keys {
			if _, ok, err := store.Get(k); err != nil || !ok {
				ioErr = fmt.Errorf("sweep driver: get %s: ok=%v err=%v", k[:12], ok, err)
			}
		}
		return len(keys)
	})
	journal, _, err := sweep.OpenJournal(filepath.Join(d.dir, "journal.wal"))
	if err != nil {
		return err
	}
	defer journal.Close()
	accepts := d.n(40) // each is an fsync
	d.measure("sweep.journal_accept_us", func() int {
		for i := 0; i < accepts; i++ {
			if err := journal.Accept(fmt.Sprintf("j%d", i), specs[i%len(specs)]); err != nil {
				ioErr = err
			}
		}
		return accepts
	})
	return ioErr
}

func (d *drv) fleet() error {
	ring, err := fleet.NewRing([]string{"http://10.0.0.1:1", "http://10.0.0.2:1", "http://10.0.0.3:1"}, 0)
	if err != nil {
		return err
	}
	r := newRNG(d.seed, "ring")
	keys := make([]string, d.n(2000))
	for i := range keys {
		keys[i] = sweep.Spec{Kind: sweep.KindCS1, Scale: "smoke", Model: 1, Config: "BAS", Mbps: 1 + r.intn(1<<20)}.Key()
	}
	d.measure("fleet.ring_owners_ns", func() int {
		for _, k := range keys {
			ring.Owners(k, fleetReplicas)
		}
		return len(keys)
	})
	return nil
}

func (d *drv) expStats() error {
	res := exp.CS1Results{}
	for m := geom.M1Chair; m <= geom.M4Triangles; m++ {
		res[m] = map[exp.MemConfig]soc.Results{}
		for _, c := range exp.AllMemConfigs() {
			res[m][c] = soc.Results{Config: c.String(), MeanGPUCycles: float64(1000*m + int(c)), MeanFrameCycles: 2000}
		}
	}
	builds := d.n(40)
	d.measure("exp.table_build_us", func() int {
		for i := 0; i < builds; i++ {
			exp.Fig09Table(res)
		}
		return builds
	})
	reg := stats.NewRegistry()
	ctr := reg.Counter("bench.hot")
	incs := d.n(5_000_000)
	d.measure("stats.counter_inc_ns", func() int {
		for i := 0; i < incs; i++ {
			ctr.Inc()
		}
		return incs
	})
	// A registry the size of the standalone GPU's (about 500 counters).
	for i := 0; i < 500; i++ {
		reg.Counter(fmt.Sprintf("gpu.core%d.counter%d", i%6, i)).Add(int64(i))
	}
	var ioErr error
	d.measure("stats.dump_json_ms", func() int {
		const dumps = 10
		for i := 0; i < dumps; i++ {
			if err := reg.DumpJSON(io.Discard); err != nil {
				ioErr = err
			}
		}
		return dumps
	})
	return ioErr
}
