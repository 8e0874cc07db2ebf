package gpu

import (
	"math"

	"emerald/internal/gfx"

	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/simt"
)

// tickDrawFrontEnd runs the GPU-level graphics front end: draw
// initiation, vertex warp distribution (paper Figure 3, B/C) and
// in-order primitive assembly + clipping + VPO distribution (D-F).
func (g *GPU) tickDrawFrontEnd(cycle uint64) {
	if g.draw == nil {
		if g.drawQueue.Len() == 0 {
			return
		}
		e := g.drawQueue.Pop()
		// The previous draw has drained (drawComplete: no task
		// outstanding, every TC unit empty), so no fragment or cluster
		// still points into its slabs.
		if g.batches == nil {
			g.batches = make([]vertexBatch, g.Cfg.VertexWindow)
		}
		g.tris.reset()
		g.prims.reset()
		g.draw = &drawState{
			call:       e.call,
			batches:    batchCount(e.call),
			startCycle: cycle,
			onDone:     e.onDone,
		}
		g.ensureHiZ(e.call.Viewport)
	}
	d := g.draw

	// Vertex distribution: up to 2 warps per cycle, round-robin across
	// all SIMT cores, throttled by the assembly window (PMRB credit).
	for i := 0; i < 2; i++ {
		if d.nextLaunch >= d.batches ||
			d.nextLaunch-d.nextAssemble >= g.Cfg.VertexWindow {
			break
		}
		total := g.Cfg.TotalCores()
		launched := false
		for try := 0; try < total; try++ {
			ci := (d.launchCore + try) % total
			core := g.clusters[ci%g.Cfg.Clusters].cores[ci/g.Cfg.Clusters]
			if !core.CanLaunch(d.call.VS) {
				continue
			}
			g.launchVSBatch(core, d, d.nextLaunch)
			d.launchCore = (ci + 1) % total
			d.nextLaunch++
			launched = true
			break
		}
		if !launched {
			break
		}
	}

	// Primitive assembly: one vertex warp per cycle, in draw order.
	if d.nextAssemble < d.nextLaunch && g.batch(d.nextAssemble).completed {
		g.assembleBatch(d, d.nextAssemble, cycle)
		d.nextAssemble++
	}

	if g.drawComplete(d) {
		g.drawsDone.Inc()
		g.drawCyclesD.Sample(float64(cycle - d.startCycle))
		g.trace.Span2(emtrace.SrcGPU, "frontend", "draw", d.startCycle, cycle,
			emtrace.Arg{Key: "prims", Val: int64(d.primSeq)},
			emtrace.Arg{Key: "frags", Val: d.fragsShaded})
		if d.onDone != nil {
			d.onDone(cycle - d.startCycle)
		}
		g.draw = nil
	}
}

func (g *GPU) ensureHiZ(vp raster.Viewport) {
	for _, cl := range g.clusters {
		if cl.hiz == nil || cl.hiz.TilesX*cl.hiz.TileSize < vp.Width ||
			cl.hiz.TilesY*cl.hiz.TileSize < vp.Height {
			cl.hiz = raster.NewHiZ(vp, gfx.TCTilePx)
		}
	}
}

// batch returns the ring record of batch b.
func (g *GPU) batch(b int) *vertexBatch { return &g.batches[b%len(g.batches)] }

// launchVSBatch places batch b's vertex warp on a core. Its record last
// held batch b-VertexWindow, which is assembled (a launch needs room in
// the window), so its warp has retired and nothing reads the record any
// more. The record starts zeroed, so a vertex shader that writes fewer
// varyings than the last one reads no stale value.
func (g *GPU) launchVSBatch(core *simt.Core, d *drawState, b int) {
	rec := g.batch(b)
	*rec = vertexBatch{}
	rec.env = vsEnv{vertexIO: vertexIO{m: g.Mem, rd: g.Mem, call: d.call, batch: b, rec: rec}, g: g, d: d}
	mask, specials := vsWarp(d.call, b)
	if _, err := core.Launch(d.call.VS, &rec.env, -1, mask, specials, nil); err == nil {
		d.vsOutstanding++
		g.vsWarpsC.Inc()
	}
}

// assembleBatch assembles, clips and sets up one vertex warp's
// primitives and distributes each to the clusters its bounding box
// touches (VPO, paper Figure 6).
func (g *GPU) assembleBatch(d *drawState, b int, cycle uint64) {
	assembled, culled := assemble(d.call, b, g.batch(b), &d.primSeq, &g.tris, func(tri *raster.SetupTri, lanes [3]int) {
		maskBits := g.screenMap.ClusterMask(tri.X0, tri.Y0, tri.X1, tri.Y1)
		var fetch [3]uint64
		for i, lane := range lanes {
			fetch[i] = g.ovbAddr(b, lane, 0)
		}
		for ci := 0; ci < g.Cfg.Clusters; ci++ {
			if maskBits&(1<<ci) == 0 {
				continue
			}
			lat := g.Cfg.MaskLatency
			if ci == 0 { // local commit skips the interconnect
				lat = 1
			}
			g.clusters[ci].pmrb.PushBack(g.prims.take(clusterPrim{
				tri:     tri,
				readyAt: cycle + lat,
				fetch:   fetch,
			}))
		}
	})
	g.primsAssembly.Add(int64(assembled))
	g.primsCulledC.Add(int64(culled))
}

// ovbRecordBytes is the per-vertex output record: clip position plus
// MaxVaryings vec4s.
const ovbRecordBytes = 16 * (1 + raster.MaxVaryings)

// ovbAddr returns the output-vertex-buffer slot address of (batch, lane,
// slot); the 36 KB buffer wraps (Table 5 sizes it for ~9K vertices).
// Vertex shading stores there and setup fetches from there.
func (g *GPU) ovbAddr(batchIdx, lane, slot int) uint64 {
	rec := uint64(batchIdx*simt.WarpSize+lane) * ovbRecordBytes
	return g.Cfg.OVBBase + (rec+uint64(slot)*16)%g.Cfg.OVBSize
}

// vsEnv is the timed vertex warp's environment: the shared data path
// plus the output-vertex-buffer store address (timed via L2) and the
// batch's retirement.
type vsEnv struct {
	vertexIO
	g *GPU
	d *drawState
}

func (e *vsEnv) OutWrite(lane, slot int, val [4]float32) uint64 {
	if !e.store(lane, slot, val) {
		return 0
	}
	return e.g.ovbAddr(e.batch, lane, slot)
}

func (e *vsEnv) Retired(w *simt.Warp) {
	e.rec.completed = true
	e.d.vsOutstanding--
}

// fsEnv is the timed fragment warp's environment: the shared data path
// plus the retirement that advances the warp's TC tile task. It lives
// inside its fsLaunch, which it hands back to the cluster at
// retirement.
type fsEnv struct {
	fragmentIO
	task   *tileTask
	launch *fsLaunch // the launch embedding this env
}

func (e *fsEnv) Retired(w *simt.Warp) {
	task, frags := e.task, len(e.frags)
	e.fragmentIO, e.task = fragmentIO{}, nil // a free launch pins no draw
	task.cl.freeLaunches = append(task.cl.freeLaunches, e.launch)
	task.warpRetired(frags)
}

// drawComplete reports whether every pipeline stage has drained.
func (g *GPU) drawComplete(d *drawState) bool {
	if d.nextLaunch < d.batches || d.nextAssemble < d.batches ||
		d.vsOutstanding > 0 || d.tasksOutstanding > 0 {
		return false
	}
	for _, cl := range g.clusters {
		if cl.pmrb.Len() > 0 || cl.setup.prim != nil || cl.rast.tri != nil ||
			cl.pendingFS.Len() > 0 || !cl.tc.Drained() {
			return false
		}
	}
	return true
}

// tickClusterGraphics advances one cluster's raster pipeline (paper
// Figure 5, stages 3-8).
func (g *GPU) tickClusterGraphics(cl *cluster, cycle uint64) {
	cl.tc.Tick(cycle)
	g.tickFSLaunch(cl, cycle)

	d := g.draw
	if d == nil {
		return
	}

	g.tickRaster(cl, d, cycle)
	g.tickSetup(cl, d, cycle)

	// PMRB -> setup (one primitive at a time, in order).
	if cl.setup.prim == nil && cl.pmrb.Len() > 0 && (*cl.pmrb.Front()).readyAt <= cycle {
		// Setup fetches the primitive's three vertex records from the
		// L2-backed output vertex buffer (paper §3.3.4).
		cl.setup.prim, cl.setup.issued, cl.setup.startedAt = cl.pmrb.Pop(), 0, cycle
	}

	// Expedite end-of-draw: flush staged TC tiles once the geometry side
	// has drained (the timeout would get there anyway, later).
	if d.nextAssemble == d.batches && cl.pmrb.Len() == 0 &&
		cl.setup.prim == nil && cl.rast.tri == nil {
		cl.tc.FlushAll()
	}
}

// tickSetup issues the setup stage's vertex fetches and, when data
// arrives, starts rasterization.
func (g *GPU) tickSetup(cl *cluster, d *drawState, cycle uint64) {
	s := &cl.setup
	if s.prim == nil {
		return
	}
	// Issue remaining fetches through the cluster port; a full port
	// builds nothing and the rest retry next cycle.
	for port := g.noc.Port(cl.id); s.issued < len(s.reqs); s.issued++ {
		if port.Full() {
			return
		}
		s.reqs[s.issued] = s.pool.New(mem.Request{
			Addr: s.prim.fetch[s.issued], Size: ovbRecordBytes, Kind: mem.Read,
			Client: mem.ClientGPU, ClientID: cl.id, IssuedAt: cycle,
		})
		port.MustPush(s.reqs[s.issued])
	}
	for _, r := range s.reqs {
		if !r.Done {
			return
		}
	}
	// Data ready: hand to the rasterizer when free.
	if cl.rast.tri != nil {
		return
	}
	g.trace.Span1(emtrace.SrcGPU, cl.track, "setup", s.startedAt, cycle,
		emtrace.Arg{Key: "prim", Val: int64(s.prim.tri.ID)})
	g.startRaster(cl, d, s.prim.tri, cycle)
	// The fetches go back to the pool they came from, now that all
	// three were seen Done.
	for i, r := range s.reqs {
		s.pool.Put(r)
		s.reqs[i] = nil
	}
	s.prim = nil
}

// startRaster precomputes the cluster-owned raster tiles of a primitive.
func (g *GPU) startRaster(cl *cluster, d *drawState, tri *raster.SetupTri, cycle uint64) {
	cl.rast.tri = tri
	cl.rast.tiles = rasterTiles(tri, d.call.Viewport, &g.screenMap, cl.id, cl.rast.tiles[:0])
	cl.rast.next = 0
	cl.rast.startedAt = cycle
}

// tickRaster processes up to RasterThroughput raster tiles of the
// current primitive: fine raster, Hi-Z, TC staging. A tile the TC
// refuses is held: later ticks skip its fine raster but re-test Hi-Z,
// which a fragment tile retiring since may have lowered, before they
// offer it again.
func (g *GPU) tickRaster(cl *cluster, d *drawState, cycle uint64) {
	r := &cl.rast
	if r.tri == nil {
		return
	}
	hiz := g.Cfg.HiZ && d.call.DepthTest && cl.hiz != nil
	for n := 0; n < g.Cfg.RasterThroughput; n++ {
		if r.next >= len(r.tiles) {
			g.trace.Span1(emtrace.SrcGPU, cl.track, "raster", r.startedAt, cycle,
				emtrace.Arg{Key: "tiles", Val: int64(len(r.tiles))})
			r.tri = nil
			return
		}
		pos := r.tiles[r.next]
		rt := &r.scratch
		if !r.held {
			if !raster.FineRasterTile(r.tri, pos[0], pos[1], d.call.Viewport, rt) {
				r.next++
				continue
			}
			if hiz {
				minZ := float32(math.Inf(1))
				for _, f := range rt.Frags {
					if f.Z < minZ {
						minZ = f.Z
					}
				}
				r.minZ = minZ
			}
		}
		if hiz && !cl.hiz.Test(pos[0], pos[1], r.minZ) {
			g.hizCulledC.Inc()
			r.held = false
			r.next++
			continue
		}
		if !cl.tc.CanStage() {
			r.held = true // backpressure: re-offer this tile once the TC has room
			return
		}
		cl.tc.Stage(rt, cycle)
		r.held = false
		r.next++
	}
}

// tileTask tracks one TC tile through fragment shading.
type tileTask struct {
	g         *GPU
	cl        *cluster
	d         *drawState
	tile      *gfx.TCTileOut
	remaining int
	started   uint64 // launch cycle, for the fragment-shading span
}

// warpRetired counts a fragment warp of the task out (every warp of a
// tile task launches on one core). The last warp's retirement completes the tile and hands the tile back to the
// TC unit and the task to the cluster.
func (t *tileTask) warpRetired(frags int) {
	t.d.fragsShaded += int64(frags)
	t.g.fragsShadedC.Add(int64(frags))
	t.remaining--
	if t.remaining > 0 {
		return
	}
	tile, cl := t.tile, t.cl
	t.g.trace.Span1(emtrace.SrcGPU, cl.track, "fs_tile", t.started, t.g.cycle,
		emtrace.Arg{Key: "frags", Val: int64(len(tile.Frags))})
	cl.tc.Complete(tile.TX, tile.TY)
	t.d.tasksOutstanding--
	// Safe Hi-Z update: full-tile opaque depth-written coverage only.
	if t.g.Cfg.HiZ && cl.hiz != nil && tile.FullCover &&
		t.d.call.DepthTest && t.d.call.DepthWrite && !t.d.call.Blend {
		px, py := gfx.TCOrigin(tile.TX, tile.TY)
		cl.hiz.Update(px, py, tile.MaxZ, true)
	}
	cl.tc.Release(tile)
	*t = tileTask{}
	cl.freeTasks = append(cl.freeTasks, t)
}

// newTask takes a tile task from the cluster's free list.
func (cl *cluster) newTask() *tileTask {
	if n := len(cl.freeTasks); n > 0 {
		t := cl.freeTasks[n-1]
		cl.freeTasks = cl.freeTasks[:n-1]
		return t
	}
	return &tileTask{}
}

// newLaunch takes a fragment-warp launch from the cluster's free list.
func (cl *cluster) newLaunch() *fsLaunch {
	if n := len(cl.freeLaunches); n > 0 {
		e := cl.freeLaunches[n-1]
		cl.freeLaunches = cl.freeLaunches[:n-1]
		return e
	}
	e := &fsLaunch{}
	e.env.launch = e
	return e
}

// tickFSLaunch pops coalesced TC tiles and launches fragment warps on
// the owning core.
func (g *GPU) tickFSLaunch(cl *cluster, cycle uint64) {
	d := g.draw
	if cl.pendingFS.Len() == 0 && d != nil {
		t := cl.tc.PopReady()
		if t != nil {
			px, py := gfx.TCOrigin(t.TX, t.TY)
			_, core := g.screenMap.OwnerOf(px, py)
			if core >= len(cl.cores) {
				core = 0
			}
			warps := (len(t.Frags) + simt.WarpSize - 1) / simt.WarpSize
			task := cl.newTask()
			*task = tileTask{g: g, cl: cl, d: d, tile: t, remaining: warps, started: cycle}
			d.tasksOutstanding++
			d.fragsLaunched += int64(len(t.Frags))
			for lo := 0; lo < len(t.Frags); lo += simt.WarpSize {
				frags := t.Frags[lo:min(lo+simt.WarpSize, len(t.Frags))]
				e := cl.newLaunch()
				e.env.fragmentIO = fragmentIO{m: g.Mem, rd: g.Mem, call: d.call, frags: frags}
				e.env.task = task
				e.core = core
				e.mask, e.specials = fsWarp(frags)
				cl.pendingFS.PushBack(e)
			}
		}
	}
	for cl.pendingFS.Len() > 0 {
		e := *cl.pendingFS.Front()
		core := cl.cores[e.core]
		if e.env.call.FS == nil || !core.CanLaunch(e.env.call.FS) {
			return
		}
		if _, err := core.Launch(e.env.call.FS, &e.env, -1, e.mask, e.specials, nil); err != nil {
			return
		}
		g.fsWarpsC.Inc()
		cl.pendingFS.Pop()
	}
}
