package exp

import (
	"fmt"
	"slices"
	"strings"
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
	"emerald/internal/par"
	"emerald/internal/shader"
	"emerald/internal/simt"
	"emerald/internal/soc"
	"emerald/internal/stats"
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

// doneCount counts the completions of the requests that carry it as
// their Tag (a mem.DoneWatcher).
type doneCount int

func (n *doneCount) RequestDone(*mem.Request) { *n++ }

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

// The GPU rows run their work twice, the second submission landing on a
// GPU that has sat drained for a while: the NeverWake memo's set, act
// and end paths are all inside the checked window. resubmit calls again
// once the GPU has reported NeverWake for 100 cycles.
func resubmit(g *gpu.GPU, again func()) func(cy uint64) {
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
			sig:  func() string { return fmt.Sprint(c.PC, c.Instructions(), c.Out.Len()) },
			tick: func(cy uint64) { c.Tick(cy) },
			post: func(cy uint64) { cp.drain(c.Out, cy) },
		}, 20000)
		if int(c.PC) != len(prog.Code)-1 || c.NextWake(20000) != mem.NeverWake {
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

	// The regular-load bus frees within TCL of every issue; at the
	// high-load 133 Mb/s a 64 B burst holds it for 121 cycles, so a
	// queued channel waits at its bus gate, a wake in the future that
	// gated must count.
	dramRow := func(t *testing.T, mbps int, cycles uint64) (gated int) {
		ctrl := dram.NewController(dram.Config{
			Name: "dram", Geometry: dram.LPDDR3Geometry(2), Timing: dram.LPDDR3Timing(mbps),
		}, nil)
		var retired doneCount
		checkWakeContract(t, wakeProbe{
			wake: func(cy uint64) uint64 {
				w := ctrl.NextWake(cy)
				if w > cy && (len(ctrl.Channels[0].Queue) > 0 || len(ctrl.Channels[1].Queue) > 0) {
					gated++
				}
				return w
			},
			sig:  func() string { return fmt.Sprint(ctrl.QueuedRequests(), ctrl.TotalBytes(), retired) },
			tick: ctrl.Tick,
			post: func(cy uint64) {
				// Two bursts separated by an idle gap, spread across
				// both channels and several rows.
				if cy < 8 || (cy >= 600 && cy < 604) {
					ctrl.Push(&mem.Request{Addr: cy * 4096, Size: 64, Client: mem.ClientGPU, Tag: &retired})
					ctrl.Push(&mem.Request{Addr: cy*4096 + 64, Size: 64, Kind: mem.Write, Client: mem.ClientCPU, Tag: &retired})
				}
			},
		}, cycles)
		if retired == 0 || !ctrl.Drained() {
			t.Fatalf("retired=%d drained=%v; traffic did not complete", retired, ctrl.Drained())
		}
		return gated
	}
	t.Run("dram", func(t *testing.T) { dramRow(t, 1333, 2000) })
	t.Run("dram-133", func(t *testing.T) {
		if gated := dramRow(t, 133, 6000); gated == 0 {
			t.Fatal("no cycle with a queued request reported a future wake; the bus gate is not the wake")
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
			tick: func(cy uint64) { d.Tick(cy) },
			post: func(cy uint64) { cp.drain(d.Out, cy) },
		}, 10000)
		if d.FramesShown() < 2 {
			t.Fatalf("FramesShown = %d; scan-out never got going", d.FramesShown())
		}
	})

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
			t.Fatalf("kernels done = %d, want 2; GPU never finished or never left the NeverWake memo", done)
		}
	})

	// The kernel row never enters the raster pipeline; a textured draw
	// covers the cluster terms the kernel cannot reach (the primitive
	// reorder buffer's readyAt, setup, raster, pending fragment launches
	// and the TC drain). A drawing GPU memoises exact waits on memory, so
	// the row runs with the GPU parked in its memo and with every tick
	// run in full (a loop with Park off), where a memo that hides a due
	// tick fails the contract check. Memory as slow as a loaded LPDDR3 bus (400 cycles)
	// leaves the GPU waiting often enough for rare terms, such as a TC
	// timeout flush falling inside a wait, to come due under the memo.
	// The slow bus backs the cluster NoC and the cores up behind the L2,
	// so waits that charge come up there (none do at 40 cycles). Each
	// row runs again with a one-entry TC ready queue, where the raster
	// holds a refused tile through most of the draw and its wake waits
	// on the TC's room.
	t.Run("gpu-draw", func(t *testing.T) {
		for _, park := range []bool{true, false} {
			charging := 0
			for _, lat := range []uint64{40, 400} {
				for _, ready := range []int{0, 1} {
					charging += gpuDrawContract(t, lat, park, ready)
				}
			}
			if charging == 0 {
				t.Fatalf("park=%v: no drawing cycle with a future wake charged anything", park)
			}
		}
	})
}

// drawRig is one GPU drawing the W3 cube frame by frame into its own
// memory, with every counter it registers, charged (see chargedCounter)
// or not, in name order. A ready above 0 sets its TC ready-queue depth.
// A one-part par.Loop ticks it, parking it or not.
type drawRig struct {
	g                  *gpu.GPU
	draw               func()
	charged, uncharged []*stats.Counter
	loop               par.Loop
	cycle              uint64
}

// tick runs the rig's loop for cycle cy.
func (r *drawRig) tick(cy uint64) {
	r.cycle = cy
	r.loop.Step()
}

func newDrawRig(t *testing.T, park bool, ready int) *drawRig {
	m, reg := mem.NewMemory(), stats.NewRegistry()
	cfg := gpu.CaseStudyIConfig()
	if ready > 0 {
		cfg.TC.ReadyDepth = ready
	}
	r := &drawRig{g: gpu.New(cfg, m, reg)}
	r.loop = par.NewLoop(&r.cycle, []par.Part{
		{Tick: r.g.Tick, NextWake: r.g.NextWake, Charge: r.g.ChargeSkipped}}, par.Hooks{})
	r.loop.SetEventWheel(park)
	for _, name := range reg.Names() {
		if chargedCounter(name) {
			r.charged = append(r.charged, reg.Counter(name))
		} else {
			r.uncharged = append(r.uncharged, reg.Counter(name))
		}
	}
	ctx := gl.NewContext(m, gl.HeapBase, gl.HeapSize)
	ctx.Submit = func(call *gpu.DrawCall) error { return r.g.SubmitDraw(call, nil) }
	ctx.OnClearDepth = r.g.ClearHiZ
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
	r.draw = func() {
		if err := drawCS2Frame(ctx, scene, mesh, frames, float32(w)/h); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	return r
}

// chargedCounter names the counters a wait may move: the NoC's stalls,
// a cache's accesses (a refused one counts), and a waiting core's
// cycles, idle scheduler slots and LSU stalls.
func chargedCounter(name string) bool {
	for _, leaf := range []string{".stalls", ".accesses", ".cycles", ".issue_idle", ".mem_stalls"} {
		if strings.HasSuffix(name, leaf) {
			return true
		}
	}
	return false
}

// gpuDrawContract checks the wake contract on a drawing GPU. A wait may
// still charge every cycle (parked NoC flits refused again, a core's
// wait), so a tick inside one may move the charged counters, and only
// by exactly the charge: a twin GPU fed the same inputs takes each such
// cycle as a clock jump does, with ChargeSkipped, and every counter of
// the two must agree after every cycle. Every other counter is in the
// contract's signature.
func gpuDrawContract(t *testing.T, lat uint64, park bool, ready int) (charging int) {
	r, twin := newDrawRig(t, park, ready), newDrawRig(t, park, ready)
	g := r.g
	uncharged := func(rig *drawRig) (n int64) {
		for _, c := range rig.uncharged {
			n += c.Value()
		}
		return n
	}
	charged := func(rig *drawRig) (n []int64) {
		for _, c := range rig.charged {
			n = append(n, c.Value())
		}
		return n
	}
	for _, rig := range []*drawRig{r, twin} {
		rig.draw()
	}
	redraw, twinRedraw := resubmit(g, r.draw), resubmit(twin.g, twin.draw)
	cp, twinCP := &completer{lat: lat}, &completer{lat: lat}
	// waited counts cycles of an active draw whose wake is in the
	// future, charging those of them whose tick charged; filled counts
	// memos a completing L2 fill ended.
	waited, filled := 0, 0
	checkWakeContract(t, wakeProbe{
		wake: func(cy uint64) uint64 {
			w := g.NextWake(cy)
			if w > cy && g.DrawProgress() < 1 {
				waited++
			}
			return w
		},
		sig: func() string { return fmt.Sprint(g.Progress(), g.Out.Len(), g.DrawsDone(), uncharged(r)) },
		tick: func(cy uint64) {
			w := g.NextWake(cy)
			if tw := twin.g.NextWake(cy); tw != w {
				t.Fatalf("lat=%d ready=%d park=%v cycle %d: NextWake %d, the twin's %d", lat, ready, park, cy, w, tw)
			}
			if w <= cy {
				r.tick(cy)
				twin.tick(cy)
				return
			}
			before := charged(r)
			r.tick(cy)
			twin.g.ChargeSkipped(cy, 1)
			got, want := charged(r), charged(twin)
			if !slices.Equal(got, want) {
				t.Fatalf("lat=%d ready=%d park=%v cycle %d: a tick inside the wait charged\n  %v\nwhere the wait charges\n  %v", lat, ready, park, cy, got, want)
			}
			if g.DrawProgress() < 1 && !slices.Equal(before, got) {
				charging++
			}
		},
		post: func(cy uint64) {
			before := g.NextWake(cy + 1)
			cp.drain(g.Out, cy)
			twinCP.drain(twin.g.Out, cy)
			if before > cy+1 && g.NextWake(cy+1) == cy+1 {
				filled++
			}
			redraw(cy)
			twinRedraw(cy)
		},
	}, 60000)
	if g.DrawsDone() != 2 || g.Busy() {
		t.Fatalf("lat=%d ready=%d park=%v: draws done = %d (want 2), busy = %v; GPU never finished or never left the NeverWake memo",
			lat, ready, park, g.DrawsDone(), g.Busy())
	}
	if g.FragsShaded() == 0 {
		t.Fatal("no fragment shaded; the raster pipeline never ran")
	}
	if got, want := fmt.Sprint(charged(r), uncharged(r)), fmt.Sprint(charged(twin), uncharged(twin)); got != want {
		t.Fatalf("lat=%d ready=%d park=%v: counters %s at the end, the twin's %s", lat, ready, park, got, want)
	}
	if waited == 0 || filled == 0 {
		t.Fatalf("lat=%d ready=%d park=%v: %d drawing cycles reported a future wake, %d memos ended by an L2 fill; want both above 0",
			lat, ready, park, waited, filled)
	}
	t.Logf("lat=%d ready=%d park=%v: %d drawing cycles waited, %d of them charging, %d memos ended by an L2 fill", lat, ready, park, waited, charging, filled)
	return charging
}
