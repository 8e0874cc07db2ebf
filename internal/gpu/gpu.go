package gpu

import (
	"fmt"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/gfx"
	"emerald/internal/interconnect"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
	"emerald/internal/simt"
	"emerald/internal/stats"
)

// cluster is one SIMT cluster (paper Figure 5): cores plus the fixed
// raster pipeline stages and the TC unit.
type cluster struct {
	id    int
	track string // trace lane name "clusterN", precomputed
	cores []*simt.Core
	tc    *gfx.TCUnit
	hiz   *raster.HiZ

	// pmrb is the primitive-mask reorder buffer output: primitives this
	// cluster must process, in draw order.
	pmrb mem.Ring[*clusterPrim]

	setup setupState
	rast  rasterState

	pendingFS mem.Ring[*fsLaunch]

	// freeEnvs holds the kernelEnvs of this cluster's finished blocks;
	// freeTasks and freeLaunches the tile tasks and fragment warps of its
	// shaded TC tiles (DESIGN.md "Draw path storage").
	freeEnvs     []*kernelEnv
	freeTasks    []*tileTask
	freeLaunches []*fsLaunch
}

// clusterPrim is one primitive delivered to a cluster by the VPO.
type clusterPrim struct {
	tri     *raster.SetupTri
	readyAt uint64
	fetch   [3]uint64 // OVB vertex record addresses (setup L2 fetch)
}

// triSlab holds a draw's setup triangles. Fragments point at their
// triangle until their tile retires, so a slot is reused only after
// reset, when the next draw starts. next hands out the first free slot
// and keep claims it, so a triangle setup rejects costs nothing.
type triSlab struct {
	tris []*raster.SetupTri
	used int
}

func (s *triSlab) next() *raster.SetupTri {
	if s.used == len(s.tris) {
		s.tris = append(s.tris, new(raster.SetupTri))
	}
	return s.tris[s.used]
}

func (s *triSlab) keep()  { s.used++ }
func (s *triSlab) reset() { s.used = 0 }

// primSlab holds a draw's VPO deliveries, under triSlab's rule.
type primSlab struct {
	prims []*clusterPrim
	used  int
}

func (s *primSlab) take(p clusterPrim) *clusterPrim {
	if s.used == len(s.prims) {
		s.prims = append(s.prims, new(clusterPrim))
	}
	cp := s.prims[s.used]
	s.used++
	*cp = p
	return cp
}

func (s *primSlab) reset() { s.used = 0 }

type setupState struct {
	prim      *clusterPrim
	issued    int             // vertex-record fetches pushed so far
	reqs      [3]*mem.Request // prim.fetch[i]'s request, from pool
	pool      mem.Pool
	startedAt uint64 // cycle the primitive entered setup (trace span)
}

type rasterState struct {
	tri       *raster.SetupTri
	tiles     [][2]int // owned raster-tile origins
	next      int
	startedAt uint64 // cycle rasterization of tri began (trace span)
	// scratch receives each fine-rastered tile; TCUnit.Stage copies the
	// fragments out, so one tile serves the whole walk.
	scratch raster.RasterTile
	// held marks tiles[next] as fine-rastered into scratch, with minimum
	// depth minZ, and refused by a full TC ready queue: it is re-offered
	// without being rastered again (fine raster is a pure function of the
	// triangle, the tile and the viewport).
	held bool
	minZ float32
}

// fsLaunch is one fragment warp: its environment and launch arguments.
// It stays with the warp until fsEnv.Retired returns it to the cluster.
type fsLaunch struct {
	env      fsEnv
	mask     uint32
	specials [simt.WarpSize]shader.Special
	core     int
}

// GPU is the full Emerald GPU.
type GPU struct {
	Cfg Config
	Mem *mem.Memory
	Reg *stats.Registry

	clusters []*cluster
	L2       *cache.Cache
	noc      *interconnect.Crossbar
	// Out carries L2 misses/writebacks toward DRAM (standalone) or the
	// system NoC (full-system mode).
	Out *mem.Queue

	screenMap gfx.ScreenMap

	draw      *drawState
	drawQueue mem.Ring[drawEntry]
	kernels   mem.Ring[*kernelState]

	// Storage of the serial front end, reused from draw to draw: the
	// ring of VertexWindow vertex batch records (batch b in b %
	// VertexWindow), the setup triangles and the VPO deliveries.
	batches []vertexBatch
	tris    triSlab
	prims   primSlab

	blockSeq int
	cycle    uint64

	// waitUntil memoises the GPU's exact wake: set at the end of every
	// Tick to wake's answer for the next cycle, with the L2 fill count
	// it saw (waitFills). Between ticks three inputs reach the GPU:
	// SubmitDraw and LaunchKernel, which end the memo, and an L2 fill
	// completing downstream, which moves fills (cache.CountFills). While
	// the memo holds, NextWake answers it in O(1), and the owner's loop
	// charges the GPU's cycles instead of ticking them; a drained GPU is
	// the memo at mem.NeverWake. A tick inside the memo (every-cycle
	// mode) runs in full, which keeps that mode an oracle for the memo;
	// under a guard (audit) it is audited too, and lostWait describes
	// the first one that moved anything.
	waitUntil, waitFills, fills uint64
	audit                       bool
	lostWait                    string
	// A memo may still charge every cycle: the cluster NoC refuses its
	// parked flits again, and each core listed in charging counts its
	// wait (see simt.Core.Wait). ChargeSkipped pays those parts and
	// nothing else.
	charging []*simt.Core

	// trace, when armed via AttachTracer, receives draw/kernel spans and
	// per-cluster setup/raster/fragment-shading phase spans.
	trace *emtrace.Tracer

	// l2Events holds L2 hit completions. The hit latency is constant, so
	// they are due in the order they were queued.
	l2Events mem.Ring[l2Event]

	drawsDone     *stats.Counter
	fragsShadedC  *stats.Counter
	primsAssembly *stats.Counter
	primsCulledC  *stats.Counter
	hizCulledC    *stats.Counter
	vsWarpsC      *stats.Counter
	fsWarpsC      *stats.Counter
	drawCyclesD   *stats.Distribution
}

type drawEntry struct {
	call   *DrawCall
	onDone func(cycles uint64)
}

type l2Event struct {
	at  uint64
	req *mem.Request
}

// drawState is the in-flight draw call's pipeline state.
type drawState struct {
	call    *DrawCall
	batches int // vertex warps in the draw (batchCount)

	nextLaunch   int
	nextAssemble int
	launchCore   int

	// The outstanding/progress gauges are updated by warp-retirement
	// callbacks and read by the front end.
	vsOutstanding    int64
	tasksOutstanding int64

	primSeq uint32

	fragsLaunched int64
	fragsShaded   int64

	startCycle uint64
	onDone     func(cycles uint64)
}

// New builds a GPU over the given functional memory. reg may be nil.
func New(cfg Config, memory *mem.Memory, reg *stats.Registry) *GPU {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	scope := reg.Scope("gpu")
	g := &GPU{
		Cfg:           cfg,
		Mem:           memory,
		Reg:           scope,
		Out:           mem.NewQueue(0),
		screenMap:     gfx.NewScreenMap(cfg.Clusters, cfg.CoresPerCluster, cfg.WT),
		drawsDone:     scope.Counter("draws_done"),
		fragsShadedC:  scope.Counter("fragments_shaded"),
		primsAssembly: scope.Counter("prims_assembled"),
		primsCulledC:  scope.Counter("prims_culled"),
		hizCulledC:    scope.Counter("hiz_culled_tiles"),
		vsWarpsC:      scope.Counter("vs_warps"),
		fsWarpsC:      scope.Counter("fs_warps"),
		drawCyclesD:   scope.Distribution("draw_cycles"),
	}
	l2cfg := cfg.L2
	l2cfg.Name = "l2"
	l2cfg.Client = mem.ClientGPU
	g.L2 = cache.New(l2cfg, scope)
	g.L2.OnReady = func(waiter any, cycle uint64) {
		if r, ok := waiter.(*mem.Request); ok && r != nil {
			r.Complete(cycle)
		}
	}
	g.L2.CountFills(&g.fills)
	g.noc = interconnect.Connect(interconnect.Config{
		Name: "gpu_noc", Ports: cfg.Clusters, Latency: cfg.NoCLatency,
		Width: cfg.NoCWidth, Depth: 32,
	}, l2Port{g}, scope)

	for ci := 0; ci < cfg.Clusters; ci++ {
		cl := &cluster{id: ci, track: fmt.Sprintf("cluster%d", ci)}
		for k := 0; k < cfg.CoresPerCluster; k++ {
			cc := cfg.Core
			cc.ID = k
			cc.ClusterID = ci
			cl.cores = append(cl.cores, simt.NewCore(cc, scope))
		}
		cl.tc = gfx.NewTCUnit(cfg.TC, scope.Scope(fmt.Sprintf("cluster%d", ci)))
		g.clusters = append(g.clusters, cl)
	}
	return g
}

// AttachTracer arms event tracing on the GPU, its L2, and every SIMT
// core (which in turn arms the core's L1 caches). It ends the memoised
// wait: a traced core's wait is ticked in full, never charged.
func (g *GPU) AttachTracer(t *emtrace.Tracer) {
	g.trace = t
	g.waitUntil = 0
	g.L2.SetTracer(t, "l2")
	for _, cl := range g.clusters {
		for _, core := range cl.cores {
			core.AttachTracer(t)
		}
	}
}

// SetWT changes the work-tile granularity (between draws/frames only).
func (g *GPU) SetWT(wt int) {
	g.screenMap = gfx.NewScreenMap(g.Cfg.Clusters, g.Cfg.CoresPerCluster, wt)
}

// SubmitDraw queues a draw call; onDone (optional) fires at retirement
// with the number of cycles the draw spent in the GPU.
func (g *GPU) SubmitDraw(call *DrawCall, onDone func(cycles uint64)) error {
	if err := call.Validate(); err != nil {
		return err
	}
	g.drawQueue.PushBack(drawEntry{call: call, onDone: onDone})
	g.waitUntil = 0
	return nil
}

// Busy reports whether any draw or kernel work remains.
func (g *GPU) Busy() bool {
	return g.draw != nil || g.drawQueue.Len() > 0 || g.kernels.Len() > 0 ||
		g.l2Events.Len() > 0 || g.noc.Busy() || g.L2.PendingMisses() > 0 || !g.coresIdle()
}

func (g *GPU) coresIdle() bool {
	for _, cl := range g.clusters {
		for _, c := range cl.cores {
			if !c.Idle() {
				return false
			}
		}
	}
	return true
}

// NextWake returns the earliest future cycle at which the GPU's state
// can change on its own. It answers in O(1) from the memoised wait
// (waitUntil), which the last Tick computed exactly with wake: a
// drawing GPU whose cores, raster stages and L2 all wait on memory
// reports the cycle its next event is due, so clock jumps cover
// memory-bound stretches as well as an idle GPU. Once the memo has
// ended (its cycle came, a fill completed, work was submitted) the
// answer is "now".
func (g *GPU) NextWake(cycle uint64) uint64 {
	if cycle < g.waitUntil && g.fills == g.waitFills {
		return g.waitUntil
	}
	return cycle
}

// wake is the GPU's exact next wake at or after from: the first cycle
// whose Tick would do anything. The memory side is due when the output
// port holds traffic or the L2 has work (a fill to install, a
// writeback to drain), and otherwise at the next L2 hit completion and
// cluster NoC event; each cluster at clusterWake; the front end when a
// kernel is queued, a draw can start, a vertex launch fits some core, a
// batch is ready to assemble or the draw is complete. The front end's
// scan over the cores comes last: a busy NoC or cluster usually
// answers first.
func (g *GPU) wake(from uint64) uint64 {
	if g.Out.Len() > 0 || g.L2.NextWake(from) <= from || g.kernels.Len() > 0 {
		return from
	}
	w := g.noc.NextWake(from)
	if g.l2Events.Len() > 0 {
		w = min(w, g.l2Events.Front().at)
	}
	for _, cl := range g.clusters {
		if w <= from {
			return from
		}
		w = min(w, g.clusterWake(cl, from))
	}
	if w <= from || g.frontEndDue() {
		return from
	}
	return w
}

// frontEndDue reports whether tickDrawFrontEnd would act: start a
// queued draw, launch a vertex warp, assemble a batch or retire the
// draw.
func (g *GPU) frontEndDue() bool {
	d := g.draw
	if d == nil {
		return g.drawQueue.Len() > 0
	}
	if d.nextAssemble < d.nextLaunch && g.batch(d.nextAssemble).completed {
		return true
	}
	if d.nextLaunch < d.batches && d.nextLaunch-d.nextAssemble < g.Cfg.VertexWindow {
		for _, cl := range g.clusters {
			for _, core := range cl.cores {
				if core.CanLaunch(d.call.VS) {
					return true
				}
			}
		}
	}
	return g.drawComplete(d)
}

// FragsShaded returns total fragments shaded (for progress feedback).
func (g *GPU) FragsShaded() int64 { return g.fragsShadedC.Value() }

// DrawsDone returns total draw calls retired (for telemetry).
func (g *GPU) DrawsDone() int64 { return g.drawsDone.Value() }

// DrawProgress estimates the active draw's completion fraction in
// [0,1] — the feedback DASH consumes.
func (g *GPU) DrawProgress() float64 {
	d := g.draw
	if d == nil {
		if g.drawQueue.Len() > 0 {
			return 0
		}
		return 1
	}
	geom := float64(d.nextAssemble) / float64(d.batches+1)
	var frag float64
	if launched := d.fragsLaunched; launched > 0 {
		frag = float64(d.fragsShaded) / float64(launched)
	}
	return 0.3*geom + 0.7*frag*geom
}

// ClearHiZ resets the Hierarchical-Z buffers (call when the depth buffer
// is cleared).
func (g *GPU) ClearHiZ() {
	for _, cl := range g.clusters {
		if cl.hiz != nil {
			cl.hiz.Clear()
		}
	}
}

// l2Port is the L2 as the cluster NoC's sink: Push services a request
// arriving from the NoC, and a refused one waits for the L2's room
// counter to move.
type l2Port struct{ *GPU }

func (g l2Port) Room() uint64 { return g.L2.Room() }

func (g l2Port) Refused(rs []*mem.Request, n uint64) { g.L2.RefusedAll(g.cycle, rs, n) }

func (g l2Port) Push(r *mem.Request) bool {
	if r.Kind == mem.Write {
		res := g.L2.Access(g.cycle, r.Addr, mem.Write, nil)
		if res == cache.Blocked {
			return false
		}
		r.Complete(g.cycle)
		return true
	}
	switch g.L2.Access(g.cycle, r.Addr, mem.Read, r) {
	case cache.Hit:
		g.l2Events.PushBack(l2Event{at: g.cycle + g.Cfg.L2.HitLatency, req: r})
		return true
	case cache.Miss:
		return true // completed via OnReady when the fill returns
	default:
		return false
	}
}

// Tick advances the whole GPU one core cycle and memoises the wait it
// leaves behind (see waitUntil). A tick inside the memo runs in full,
// audited under a guard.
func (g *GPU) Tick(cycle uint64) {
	if g.audit && g.NextWake(cycle) > cycle {
		g.auditWait(cycle)
	} else {
		g.step(cycle)
	}
	g.charging = g.charging[:0]
	g.waitUntil, g.waitFills = g.wake(cycle+1), g.fills
}

// ChargeSkipped pays n cycles of the memoised wait, the last of them at
// cycle last: the cluster NoC's refusals of its parked flits and each
// charging core's wait. It is the GPU's par.Part charge.
func (g *GPU) ChargeSkipped(last, n uint64) {
	g.cycle = last
	g.noc.Charge(n)
	for _, c := range g.charging {
		c.ChargeSkipped(last, n)
	}
}

// step is the full tick. It runs as three phases: the memory side (L2
// completions, L2 tick, miss drain, cluster NoC), the clusters in
// cluster order, and the draw front end / kernel dispatch.
func (g *GPU) step(cycle uint64) {
	g.cycle = cycle

	// L2 hit completions.
	for g.l2Events.Len() > 0 && g.l2Events.Front().at <= cycle {
		g.l2Events.Pop().req.Complete(cycle)
	}

	g.L2.Tick(cycle)
	// L2 miss/writeback traffic leaves the GPU; what the output port
	// refuses waits in L2.Out.
	g.L2.Out.DrainTo(g.Out)

	g.noc.Tick(cycle)

	for _, cl := range g.clusters {
		g.tickCluster(cl)
	}

	g.tickDrawFrontEnd(cycle)
	g.tickKernels(cycle)
}

// tickCluster advances one cluster for the cycle most recently passed
// to Tick: its SIMT cores (draining L1 miss traffic into the cluster's
// own NoC port) and its raster pipeline.
func (g *GPU) tickCluster(cl *cluster) {
	cycle := g.cycle
	for _, core := range cl.cores {
		core.Tick(cycle)
		// Core L1 miss traffic into the cluster's NoC port; requests
		// stay in the core's output queue while the port is full.
		if core.Out.Len() > 0 {
			core.Out.DrainTo(g.noc.Port(cl.id))
		}
	}
	g.tickClusterGraphics(cl, cycle)
}

// clusterWake is the per-cluster term of wake: the first cycle at or
// after from at which the cluster's tick would do anything but charge.
// A stage that can move is due now: raster holding a primitive, unless
// its tile is held behind a full TC ready queue, setup with fetches to
// issue into a port with room or, once raster is free, all of them
// back, the head fragment launch when its core has room (with none
// pending, PopReady when a tile may be launchable) and, once raster is
// free, the end-of-draw flush of an active TC engine. A held tile moves
// only once a PopReady makes room or a retiring fragment tile lowers its
// Hi-Z, and a step does both before its tickRaster, so a hold needs no
// wake of its own. Otherwise the cluster waits for the earliest TC
// timeout flush, the head primitive's readyAt (pmrb is appended in
// readyAt order) and its cores' waits (simt.Core.Wait), a core whose
// Out the port has room for being due now (after a tick a core holds
// Out traffic only behind a full port: tickCluster drains each core
// into it). It lists the cores whose wait charges in g.charging.
func (g *GPU) clusterWake(cl *cluster, from uint64) uint64 {
	d, s, r, port := g.draw, &cl.setup, &cl.rast, g.noc.Port(cl.id)
	if r.tri != nil && (!r.held || cl.tc.CanStage()) ||
		s.prim != nil && (s.issued < len(s.reqs) && !port.Full() ||
			r.tri == nil && s.issued == len(s.reqs) && s.reqs[0].Done && s.reqs[1].Done && s.reqs[2].Done) {
		return from
	}
	if cl.pendingFS.Len() > 0 {
		if e := *cl.pendingFS.Front(); e.env.call.FS != nil && cl.cores[e.core].CanLaunch(e.env.call.FS) {
			return from
		}
	} else if d != nil && cl.tc.Poppable() {
		return from
	}
	w := cl.tc.NextFlush()
	if d != nil && s.prim == nil {
		if cl.pmrb.Len() > 0 {
			w = min(w, (*cl.pmrb.Front()).readyAt)
		} else if w != mem.NeverWake && r.tri == nil && d.nextAssemble == d.batches {
			return from // tickClusterGraphics flushes every engine
		}
	}
	for _, core := range cl.cores {
		if w <= from {
			return from
		}
		until, charges := core.Wait(from)
		if charges {
			if core.Out.Len() > 0 && !port.Full() {
				return from
			}
			g.charging = append(g.charging, core)
		}
		w = min(w, until)
	}
	return w
}
