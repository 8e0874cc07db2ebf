package exp

import (
	"fmt"
	"testing"

	"emerald/internal/cache"
	"emerald/internal/cpu"
	"emerald/internal/dram"
	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/interconnect"
	"emerald/internal/mem"
	"emerald/internal/sched"
	"emerald/internal/shader"
	"emerald/internal/simt"
	"emerald/internal/soc"
)

// TestNextWakeContract drives every NextWake implementor through a
// crafted busy period and asserts the wake contract directly: whenever
// a component reports its next self-driven wake is strictly in the
// future, ticking it this cycle must not observably change its state.
// A violation is a late wake — a clock jump or a parked component would
// pass over a cycle where the component had real work, a
// silent-correctness bug the whole-system digest gates only catch after
// the divergence has already propagated. External stimulus (memory
// completions, new requests, new submissions) is applied strictly after
// each cycle's check, mirroring how inputs arrive between ticks.

// wakeProbe adapts one component to the shared contract checker.
type wakeProbe struct {
	wake func(cycle uint64) uint64
	sig  func() string      // observable-state signature
	tick func(cycle uint64) // the component's own tick
	post func(cycle uint64) // external stimulus, after the check
}

func checkWakeContract(t *testing.T, p wakeProbe, cycles uint64) {
	t.Helper()
	for c := uint64(0); c < cycles; c++ {
		w := p.wake(c)
		if w < c {
			t.Fatalf("cycle %d: NextWake = %d is in the past", c, w)
		}
		before := p.sig()
		p.tick(c)
		if after := p.sig(); after != before && w > c {
			t.Fatalf("cycle %d: NextWake = %d claims no self-driven change before then, but ticking changed state\n  before: %s\n  after:  %s",
				c, w, before, after)
		}
		if p.post != nil {
			p.post(c)
		}
	}
}

// completer models an ideal external memory: requests popped from a
// queue complete a fixed latency later (always after the cycle's
// contract check, like a real downstream component would).
type completer struct {
	lat  uint64
	pend []struct {
		at uint64
		r  *mem.Request
	}
}

func (cp *completer) drain(q *mem.Queue, cycle uint64) {
	for {
		r := q.Pop()
		if r == nil {
			break
		}
		cp.pend = append(cp.pend, struct {
			at uint64
			r  *mem.Request
		}{cycle + cp.lat, r})
	}
	keep := cp.pend[:0]
	for _, p := range cp.pend {
		if p.at <= cycle {
			p.r.Complete(cycle)
		} else {
			keep = append(keep, p)
		}
	}
	cp.pend = keep
}

// wakeEnv is a minimal WarpEnv for driving a bare SIMT core.
type wakeEnv struct{ m *mem.Memory }

func (e *wakeEnv) AttrIn(lane, slot int) ([4]float32, uint64)     { return [4]float32{}, 0 }
func (e *wakeEnv) OutWrite(lane, slot int, val [4]float32) uint64 { return 0 }
func (e *wakeEnv) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	return [4]float32{}, [4]uint64{}
}
func (e *wakeEnv) ZAddr(lane int) uint64 { return 0 }
func (e *wakeEnv) CAddr(lane int) uint64 { return 0 }
func (e *wakeEnv) ConstBase() uint64     { return 0 }
func (e *wakeEnv) SharedMem() []byte     { return nil }
func (e *wakeEnv) Memory() *mem.Memory   { return e.m }
func (e *wakeEnv) Retired(w *simt.Warp)  {}

func TestNextWakeContract(t *testing.T) {
	t.Run("cpu", func(t *testing.T) {
		prog, err := cpu.Assemble("wake", `
			movi r1, 0
			movi r2, 4096
			movi r5, 16
		loop:
			ld   r3, [r2]
			mul  r4, r3, r3
			st   [r2], r4
			addi r2, r2, 64
			addi r1, r1, 1
			blt  r1, r5, loop
			halt
		`)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.NewCore(cpu.DefaultConfig(0), prog, mem.NewMemory(), nil)
		cp := &completer{lat: 35}
		checkWakeContract(t, wakeProbe{
			wake: c.NextWake,
			sig:  func() string { return fmt.Sprint(c.PC, c.Halted(), c.Out.Len()) },
			tick: func(cy uint64) { c.Tick(cy) },
			post: func(cy uint64) { cp.drain(c.Out, cy) },
		}, 20000)
		if !c.Halted() {
			t.Fatal("program did not complete inside the contract window")
		}
	})

	t.Run("simt", func(t *testing.T) {
		env := &wakeEnv{m: mem.NewMemory()}
		for i := 0; i < 64; i++ {
			env.m.WriteF32(0x1000+uint64(i)*4, float32(i))
		}
		c := simt.NewCore(simt.DefaultCoreConfig(), nil)
		prog := shader.MustAssemble("wake", shader.KindCompute, `
			movs r0, %tid
			shl  r1, r0, 2
			iadd r2, r1, 0x1000
			ldg  r3, [r2]
			cvt.i2f r4, r0
			mad  r5, r3, 2.0, r4
			stg  [r2], r5
			exit
		`)
		var sp [simt.WarpSize]shader.Special
		for i := range sp {
			sp[i] = shader.Special{TID: uint32(i), NTID: simt.WarpSize}
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Launch(prog, env, -1, simt.FullMask, sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		cp := &completer{lat: 40}
		checkWakeContract(t, wakeProbe{
			wake: c.NextWake,
			sig:  func() string { return fmt.Sprint(c.Instructions(), c.Out.Len()) },
			tick: func(cy uint64) { c.Tick(cy) },
			post: func(cy uint64) { cp.drain(c.Out, cy) },
		}, 20000)
		if c.Instructions() < 16 {
			t.Fatalf("only %d instructions issued; warps did not run", c.Instructions())
		}
	})

	t.Run("cache", func(t *testing.T) {
		ready := 0
		cc := cache.New(cache.Config{
			Name: "l1", SizeBytes: 2048, LineBytes: 64, Ways: 2,
			HitLatency: 2, MSHRs: 4, MSHRTargets: 4,
			WriteBack: true, Allocate: true, Client: mem.ClientGPU,
		}, nil)
		cc.OnReady = func(any, uint64) { ready++ }
		cp := &completer{lat: 30}
		tok := 0
		checkWakeContract(t, wakeProbe{
			wake: cc.NextWake,
			sig:  func() string { return fmt.Sprint(ready, cc.Out.Len(), cc.PendingMisses()) },
			tick: cc.Tick,
			post: func(cy uint64) {
				if cy < 1400 && cy%7 == 0 {
					kind := mem.Read
					if cy%21 == 0 {
						kind = mem.Write
					}
					addr := uint64((cy*13)%96) * 64
					cc.Access(cy, addr, kind, &tok)
				}
				cp.drain(cc.Out, cy)
			},
		}, 3000)
		if ready == 0 {
			t.Fatal("no fills returned; cache never got busy")
		}
	})

	t.Run("dram", func(t *testing.T) {
		ctrl := dram.NewController(dram.Config{
			Name: "dram", Geometry: dram.LPDDR3Geometry(2), Timing: dram.LPDDR3Timing(1333),
		}, nil)
		retired := 0
		ctrl.SetOnRetire(func(*mem.Request, uint64) { retired++ })
		checkWakeContract(t, wakeProbe{
			wake: ctrl.NextWake,
			sig:  func() string { return fmt.Sprint(ctrl.QueuedRequests(), ctrl.TotalBytes(), retired) },
			tick: ctrl.Tick,
			post: func(cy uint64) {
				// Two bursts separated by an idle gap, spread across
				// both channels and several rows.
				if cy < 8 || (cy >= 600 && cy < 604) {
					ctrl.Push(&mem.Request{Addr: cy * 4096, Size: 64, Client: mem.ClientGPU})
					ctrl.Push(&mem.Request{Addr: cy*4096 + 64, Size: 64, Kind: mem.Write, Client: mem.ClientCPU})
				}
			},
		}, 2000)
		if retired == 0 || !ctrl.Drained() {
			t.Fatalf("retired=%d drained=%v; traffic did not complete", retired, ctrl.Drained())
		}
	})

	t.Run("xbar", func(t *testing.T) {
		delivered, attempts := 0, 0
		x := interconnect.New(interconnect.Config{
			Name: "x", Ports: 2, Latency: 3, Width: 1, Depth: 8,
		}, func(r *mem.Request) bool {
			attempts++
			if attempts%4 == 0 {
				return false // periodic backpressure: arrival stays in flight
			}
			delivered++
			return true
		}, nil)
		checkWakeContract(t, wakeProbe{
			wake: x.NextWake,
			sig:  func() string { return fmt.Sprint(delivered, attempts, x.Busy()) },
			tick: x.Tick,
			post: func(cy uint64) {
				if cy < 6 || cy == 40 || cy == 41 {
					x.Push(int(cy%2), &mem.Request{Addr: 64 * cy})
				}
			},
		}, 200)
		if delivered < 8 || x.Busy() {
			t.Fatalf("delivered=%d busy=%v; crossbar did not drain", delivered, x.Busy())
		}
	})

	t.Run("display", func(t *testing.T) {
		d := soc.NewDisplay(3000, nil)
		d.SetFrontBuffer(gfx.Surface{Base: 0x40000, Width: 64, Height: 8})
		cp := &completer{lat: 50}
		checkWakeContract(t, wakeProbe{
			wake: d.NextWake,
			sig: func() string {
				return fmt.Sprint(d.Served(), d.FramesShown(), d.FramesDropped(), d.Out.Len(), d.FrameStart())
			},
			tick: d.Tick,
			post: func(cy uint64) { cp.drain(d.Out, cy) },
		}, 10000)
		if d.FramesShown() < 2 {
			t.Fatalf("FramesShown = %d; scan-out never got going", d.FramesShown())
		}
	})

	// The two GPU rows run their work twice, the second submission
	// landing on a GPU that has sat drained for a while: the latch's set,
	// act and clear paths are all inside the checked window. resubmit
	// calls again once the GPU has reported NeverWake for 100 cycles.
	resubmit := func(g *gpu.GPU, again func()) func(cy uint64) {
		idle, fired := 0, false
		return func(cy uint64) {
			if fired || g.NextWake(cy+1) != mem.NeverWake {
				idle = 0
				return
			}
			if idle++; idle == 100 {
				fired = true
				again()
			}
		}
	}

	t.Run("gpu", func(t *testing.T) {
		m := mem.NewMemory()
		for i := 0; i < 256; i++ {
			m.WriteF32(0x1000+uint64(i)*4, float32(i))
		}
		g := gpu.New(gpu.CaseStudyIConfig(), m, nil)
		prog := shader.MustAssemble("wake", shader.KindCompute, `
			movs r0, %tid
			shl  r1, r0, 2
			iadd r2, r1, 0x1000
			ldg  r3, [r2]
			mad  r4, r3, 2.0, r3
			stg  [r2], r4
			exit
		`)
		done := 0
		launch := func() {
			if err := g.LaunchKernel(gpu.Kernel{Prog: prog, Blocks: 4, ThreadsPerBlock: 64},
				func(uint64) { done++ }); err != nil {
				t.Fatal(err)
			}
		}
		launch()
		relaunch := resubmit(g, launch)
		cp := &completer{lat: 40}
		checkWakeContract(t, wakeProbe{
			wake: g.NextWake,
			sig:  func() string { return fmt.Sprint(g.Progress(), g.Out.Len(), done) },
			tick: g.Tick,
			post: func(cy uint64) { cp.drain(g.Out, cy); relaunch(cy) },
		}, 30000)
		if done != 2 {
			t.Fatalf("kernels done = %d, want 2; GPU never finished or never left the drained latch", done)
		}
	})

	// The kernel row never enters the raster pipeline; a textured draw
	// covers the cluster terms the kernel cannot reach (the primitive
	// reorder buffer's readyAt, setup, raster, pending fragment launches
	// and the TC drain).
	t.Run("gpu-draw", func(t *testing.T) {
		m := mem.NewMemory()
		g := gpu.New(gpu.CaseStudyIConfig(), m, nil)
		ctx := gl.NewContext(m, gl.HeapBase, gl.HeapSize)
		ctx.Submit = func(call *gpu.DrawCall) error { return g.SubmitDraw(call, nil) }
		ctx.OnClearDepth = g.ClearHiZ
		scene, err := geom.DFSLWorkload(geom.W3Cube)
		if err != nil {
			t.Fatal(err)
		}
		const w, h = 48, 36
		if err := ctx.Viewport(w, h); err != nil {
			t.Fatal(err)
		}
		mesh, err := ctx.LoadScene(scene)
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		draw := func() {
			if err := drawCS2Frame(ctx, scene, mesh, frames, float32(w)/h); err != nil {
				t.Fatal(err)
			}
			frames++
		}
		draw()
		redraw := resubmit(g, draw)
		cp := &completer{lat: 40}
		checkWakeContract(t, wakeProbe{
			wake: g.NextWake,
			sig:  func() string { return fmt.Sprint(g.Progress(), g.Out.Len(), g.DrawsDone()) },
			tick: g.Tick,
			post: func(cy uint64) { cp.drain(g.Out, cy); redraw(cy) },
		}, 60000)
		if g.DrawsDone() != 2 || g.Busy() {
			t.Fatalf("draws done = %d (want 2), busy = %v; GPU never finished or never left the drained latch",
				g.DrawsDone(), g.Busy())
		}
		if g.FragsShaded() == 0 {
			t.Fatal("no fragment shaded; the raster pipeline never ran")
		}
	})

	t.Run("dash", func(t *testing.T) {
		d := sched.NewDASH(sched.DASHConfig{
			SchedulingUnit: 40, SwitchingUnit: 25, QuantumLength: 100,
			ClusterFactor: 0.15, EmergentThreshold: 0.8, GPUEmergent: 0.9,
			NumCPUs: 2, Seed: 1,
		})
		d.RegisterIP(mem.ClientDisplay, 0, 500)
		d.StartFrame(mem.ClientDisplay, 0, 0)
		flips := 0
		last := false
		checkWakeContract(t, wakeProbe{
			wake: d.NextWake,
			sig: func() string {
				u := d.Urgent(mem.ClientDisplay, 0)
				if u != last {
					last = u
					flips++
				}
				return fmt.Sprint(d.P(), u, d.Intensive(0), d.Intensive(1))
			},
			tick: d.Tick,
			post: func(cy uint64) {
				switch cy {
				case 250:
					d.ReportProgress(mem.ClientDisplay, 0, 0.2)
				case 500:
					d.StartFrame(mem.ClientDisplay, 0, cy)
					d.ReportProgress(mem.ClientDisplay, 0, 1)
				case 900:
					d.ReportProgress(mem.ClientDisplay, 0, 0.1)
				}
			},
		}, 2000)
		if flips == 0 {
			t.Fatal("urgency never changed; scheduler state was static")
		}
	})
}
