package gpu

import (
	"fmt"
	"sync/atomic"

	"emerald/internal/cache"
	"emerald/internal/emtrace"
	"emerald/internal/gfx"
	"emerald/internal/interconnect"
	"emerald/internal/mem"
	"emerald/internal/par"
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

	// freeEnvs holds the kernelEnvs of this cluster's finished blocks.
	freeEnvs []*kernelEnv
}

// clusterPrim is one primitive delivered to a cluster by the VPO.
type clusterPrim struct {
	tri     *raster.SetupTri
	readyAt uint64
	fetch   [3]uint64 // OVB vertex record addresses (setup L2 fetch)
}

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
}

type fsLaunch struct {
	env      *fsEnv
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

	blockSeq int
	cycle    uint64

	// clusterGroup, when armed via SetParallel, runs the per-cluster
	// shards (cores + raster pipeline) on the worker pool; nil ticks the
	// clusters inline in cluster order. Both orders compute identical
	// state: a cluster shard touches only state it owns, plus atomic
	// gauges and the shared functional memory at shard-disjoint bytes.
	clusterGroup *par.Group

	// drained is the memoised NeverWake answer of NextWake: set at the
	// end of a Tick that leaves the GPU with nothing anywhere, cleared by
	// SubmitDraw and LaunchKernel — the only inputs that reach a drained
	// GPU, both its own methods. While it holds, Tick returns at once and
	// NextWake answers in O(1). The latch is maintained in both modes;
	// parkDrained gates only whether it is acted on, so the reference
	// mode still ticks a drained GPU and stays an oracle for the latch.
	drained     bool
	parkDrained bool

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
	batches []*vertexBatch

	nextLaunch   int
	nextAssemble int
	launchCore   int

	// The outstanding/progress gauges are updated from cluster shards
	// (warp-retirement callbacks) while the front end reads them in the
	// serial phase; additions commute, so atomics keep them exact and
	// worker-count-independent.
	vsOutstanding    atomic.Int64
	tasksOutstanding atomic.Int64

	primSeq uint32

	fragsLaunched atomic.Int64
	fragsShaded   atomic.Int64

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
	g.noc = interconnect.New(interconnect.Config{
		Name: "gpu_noc", Ports: cfg.Clusters, Latency: cfg.NoCLatency,
		Width: cfg.NoCWidth, Depth: 32,
	}, g.l2Sink, scope)

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
	g.parkDrained = true
	return g
}

// SetParkDrained toggles whether a drained GPU parks (see GPU.drained).
// The latch is maintained in both modes, so the toggle takes effect
// immediately and never changes simulated state — only whether a GPU
// with nothing to do burns its ticks.
func (g *GPU) SetParkDrained(on bool) { g.parkDrained = on }

// AttachTracer arms event tracing on the GPU, its L2, and every SIMT
// core (which in turn arms the core's L1 caches).
func (g *GPU) AttachTracer(t *emtrace.Tracer) {
	g.trace = t
	g.L2.SetTracer(t, "l2")
	for _, cl := range g.clusters {
		for _, core := range cl.cores {
			core.AttachTracer(t)
		}
	}
}

// SetParallel arms the worker pool: each cluster becomes one shard of
// the parallel tick phase. A nil pool (or pool of size 1) restores the
// inline path.
func (g *GPU) SetParallel(p *par.Pool) {
	if p == nil || p.Size() <= 1 {
		g.clusterGroup = nil
		return
	}
	tasks := make([]func(), len(g.clusters))
	for i, cl := range g.clusters {
		cl := cl
		tasks[i] = func() { g.tickClusterShard(cl) }
	}
	g.clusterGroup = par.NewGroup(p, tasks)
}

// SetWT changes the work-tile granularity (between draws/frames only).
func (g *GPU) SetWT(wt int) {
	g.screenMap = gfx.NewScreenMap(g.Cfg.Clusters, g.Cfg.CoresPerCluster, wt)
}

// WT returns the current work-tile granularity.
func (g *GPU) WT() int { return g.screenMap.WT }

// SubmitDraw queues a draw call; onDone (optional) fires at retirement
// with the number of cycles the draw spent in the GPU.
func (g *GPU) SubmitDraw(call *DrawCall, onDone func(cycles uint64)) error {
	if err := call.Validate(); err != nil {
		return err
	}
	g.drawQueue.PushBack(drawEntry{call: call, onDone: onDone})
	g.drained = false
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
// can change on its own: the earliest of its serial stages (front end,
// L2, L2 hit completions, cluster NoC, output port) and its clusters.
// The front end is deliberately conservative: any active or queued draw
// or kernel reports "now", so a busy GPU answers in O(1) and only the
// short tail after the last warp retires folds over the clusters. Clock
// jumps therefore only cover a genuinely idle GPU (between frames, or an
// SoC GPU waiting for the next app submission), and that GPU answers
// from the drained latch.
func (g *GPU) NextWake(cycle uint64) uint64 {
	if g.drained && g.parkDrained {
		return mem.NeverWake
	}
	if g.draw != nil || g.drawQueue.Len() > 0 || g.kernels.Len() > 0 ||
		!g.L2.Quiet() || g.Out.Len() > 0 {
		return cycle
	}
	w := g.noc.NextWake(cycle)
	if g.l2Events.Len() > 0 && g.l2Events.Front().at < w {
		w = g.l2Events.Front().at
	}
	for _, cl := range g.clusters {
		if v := g.clusterWake(cl, cycle); v < w {
			w = v
		}
	}
	if w <= cycle {
		return cycle
	}
	return w
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
	geom := float64(d.nextAssemble) / float64(len(d.batches)+1)
	var frag float64
	if launched := d.fragsLaunched.Load(); launched > 0 {
		frag = float64(d.fragsShaded.Load()) / float64(launched)
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

// l2Sink services requests arriving at the L2 from the cluster NoC.
func (g *GPU) l2Sink(r *mem.Request) bool {
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

// Tick advances the whole GPU one core cycle. It runs as three phases:
// a serialized memory-side exchange (L2 completions, L2 tick, miss
// drain, cluster NoC), the per-cluster shard phase (parallel when
// SetParallel armed a pool, inline otherwise), and the serialized draw
// front end / kernel dispatch, which observe the shards' results only
// after the phase barrier. A drained GPU skips all three.
func (g *GPU) Tick(cycle uint64) {
	if g.drained && g.parkDrained {
		return
	}
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

	if g.clusterGroup != nil {
		g.clusterGroup.Run()
	} else {
		for _, cl := range g.clusters {
			g.tickClusterShard(cl)
		}
	}

	g.tickDrawFrontEnd(cycle)
	g.tickKernels(cycle)

	if !g.drained {
		g.drained = g.NextWake(cycle+1) == mem.NeverWake
	}
}

// tickClusterShard advances one cluster for the cycle most recently
// passed to Tick: its SIMT cores (draining L1 miss traffic into the
// cluster's own NoC port) and its raster pipeline. This is the unit of
// parallelism of the tick engine; everything it mutates is owned by
// this cluster except the atomic draw/kernel gauges, the (locked)
// tracer, and shard-disjoint framebuffer bytes in functional memory.
func (g *GPU) tickClusterShard(cl *cluster) {
	cycle := g.cycle
	for _, core := range cl.cores {
		core.Tick(cycle)
		// Core L1 miss traffic into the cluster's NoC port; requests
		// stay in the core's output queue while the port is full.
		core.Out.DrainTo(g.noc.Port(cl.id))
	}
	g.tickClusterGraphics(cl, cycle)
}

// clusterWake is the per-cluster term of NextWake: the cluster's next
// self-driven wake cycle, at or after `from`. Any pipeline stage holding
// work pins the cluster hot; a drained pipeline wakes at the first
// pending primitive's readyAt (pmrb is appended in readyAt order) or the
// earliest core wake, whichever comes first.
func (g *GPU) clusterWake(cl *cluster, from uint64) uint64 {
	if cl.setup.prim != nil || cl.rast.tri != nil ||
		cl.pendingFS.Len() > 0 || !cl.tc.Drained() {
		return from
	}
	w := uint64(mem.NeverWake)
	if cl.pmrb.Len() > 0 {
		if w = (*cl.pmrb.Front()).readyAt; w <= from {
			return from
		}
	}
	for _, core := range cl.cores {
		cw := core.NextWake(from)
		if cw <= from {
			return from
		}
		if cw < w {
			w = cw
		}
	}
	return w
}

// CoreActiveWarps reports resident warps on the i-th core (cluster-major
// flat index) — an occupancy probe for tools and tests.
func (g *GPU) CoreActiveWarps(i int) int {
	cl := g.clusters[i%len(g.clusters)]
	return cl.cores[i/len(g.clusters)%len(cl.cores)].ActiveWarps()
}
