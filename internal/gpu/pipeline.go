package gpu

import (
	"math"

	"emerald/internal/gfx"

	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/raster"
	"emerald/internal/shader"
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
		g.draw = &drawState{
			call:       e.call,
			batches:    buildBatches(e.call),
			startCycle: cycle,
			onDone:     e.onDone,
		}
		g.ensureHiZ(e.call.Viewport)
	}
	d := g.draw

	// Vertex distribution: up to 2 warps per cycle, round-robin across
	// all SIMT cores, throttled by the assembly window (PMRB credit).
	for i := 0; i < 2; i++ {
		if d.nextLaunch >= len(d.batches) ||
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
	if d.nextAssemble < d.nextLaunch && d.batches[d.nextAssemble].completed {
		g.assembleBatch(d, d.nextAssemble, cycle)
		d.nextAssemble++
	}

	if g.drawComplete(d) {
		g.drawsDone.Inc()
		g.drawCyclesD.Sample(float64(cycle - d.startCycle))
		g.trace.Span2(emtrace.SrcGPU, "frontend", "draw", d.startCycle, cycle,
			emtrace.Arg{Key: "prims", Val: int64(d.primSeq)},
			emtrace.Arg{Key: "frags", Val: d.fragsShaded.Load()})
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

// launchVSBatch places one vertex warp on a core.
func (g *GPU) launchVSBatch(core *simt.Core, d *drawState, batchIdx int) {
	b := d.batches[batchIdx]
	env := &vsEnv{g: g, d: d, b: b, batchIdx: batchIdx}
	var mask uint32
	var specials [simt.WarpSize]shader.Special
	for lane := 0; lane < len(b.positions) && lane < simt.WarpSize; lane++ {
		mask |= 1 << lane
		specials[lane] = shader.Special{
			TID:  uint32(lane),
			NTID: uint32(len(b.positions)),
			VID:  d.call.Indices[b.positions[lane]],
		}
	}
	if _, err := core.Launch(d.call.VS, env, -1, mask, specials, nil); err == nil {
		d.vsOutstanding.Add(1)
		b.launched = true
		g.vsWarpsC.Inc()
	}
}

// assembleBatch assembles, clips and distributes one vertex warp's
// primitives.
func (g *GPU) assembleBatch(d *drawState, batchIdx int, cycle uint64) {
	b := d.batches[batchIdx]
	for _, k := range b.tris {
		pos := triPositions(d.call.Mode, k)
		var prim raster.Primitive
		prim.ID = d.primSeq
		lanes := [3]int{}
		ok := true
		for i := 0; i < 3; i++ {
			lane := b.laneOf(pos[i])
			if lane < 0 {
				ok = false
				break
			}
			lanes[i] = lane
			prim.V[i] = b.results[lane]
		}
		if !ok {
			continue
		}
		g.primsAssembly.Inc()

		tris, res := raster.ClipCull(prim, d.call.CullBack)
		if len(tris) == 0 {
			_ = res
			g.primsCulledC.Inc()
			continue
		}
		for _, t := range tris {
			st, sok := raster.Setup(t, d.call.Viewport)
			if !sok {
				g.primsCulledC.Inc()
				continue
			}
			st.ID = d.primSeq
			d.primSeq++
			// VPO: bounding box -> per-cluster primitive mask (Figure 6).
			maskBits := g.screenMap.ClusterMask(st.X0, st.Y0, st.X1, st.Y1)
			var fetch [3]uint64
			for i := 0; i < 3; i++ {
				fetch[i] = g.ovbAddr(batchIdx, lanes[i], 0)
			}
			for ci := 0; ci < g.Cfg.Clusters; ci++ {
				if maskBits&(1<<ci) == 0 {
					continue
				}
				lat := g.Cfg.MaskLatency
				if ci == 0 { // local commit skips the interconnect
					lat = 1
				}
				g.clusters[ci].pmrb.PushBack(&clusterPrim{
					tri:     st,
					readyAt: cycle + lat,
					fetch:   fetch,
				})
			}
		}
	}
}

// ovbAddr mirrors vsEnv.ovbAddr for the assembly/setup stages.
func (g *GPU) ovbAddr(batchIdx, lane, slot int) uint64 {
	rec := uint64(batchIdx*simt.WarpSize+lane) * ovbRecordBytes
	return g.Cfg.OVBBase + (rec+uint64(slot)*16)%g.Cfg.OVBSize
}

// drawComplete reports whether every pipeline stage has drained.
func (g *GPU) drawComplete(d *drawState) bool {
	if d.nextLaunch < len(d.batches) || d.nextAssemble < len(d.batches) ||
		d.vsOutstanding.Load() > 0 || d.tasksOutstanding.Load() > 0 {
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
	if d.nextAssemble == len(d.batches) && cl.pmrb.Len() == 0 &&
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
	// The fetches go back to the pool they came from: here, in the
	// cluster's own shard, after all three were seen Done.
	for i, r := range s.reqs {
		s.pool.Put(r)
		s.reqs[i] = nil
	}
	s.prim = nil
}

// startRaster precomputes the cluster-owned raster tiles of a primitive.
// The walk is TC-tile-blocked (coarse raster over 8x8 TC tiles, then the
// 2x2 raster tiles within each): the TC engines then see a TC tile's
// raster tiles back to back and can coalesce them fully instead of
// thrashing between screen positions.
func (g *GPU) startRaster(cl *cluster, d *drawState, tri *raster.SetupTri, cycle uint64) {
	cl.rast.tri = tri
	cl.rast.tiles = cl.rast.tiles[:0]
	cl.rast.next = 0
	cl.rast.startedAt = cycle
	vp := d.call.Viewport
	raster.CoarseRaster(tri, gfx.TCTilePx, func(cx, cy int) {
		if g.screenMap.ClusterOf(cx, cy) != cl.id {
			return
		}
		for dy := 0; dy < gfx.TCTilePx; dy += raster.RasterTileSize {
			for dx := 0; dx < gfx.TCTilePx; dx += raster.RasterTileSize {
				tx, ty := cx+dx, cy+dy
				if tx >= vp.Width || ty >= vp.Height || tx+raster.RasterTileSize <= tri.X0 ||
					ty+raster.RasterTileSize <= tri.Y0 || tx >= tri.X1 || ty >= tri.Y1 {
					continue
				}
				cl.rast.tiles = append(cl.rast.tiles, [2]int{tx, ty})
			}
		}
	})
}

// tickRaster processes up to RasterThroughput raster tiles of the
// current primitive: fine raster, Hi-Z, TC staging.
func (g *GPU) tickRaster(cl *cluster, d *drawState, cycle uint64) {
	if cl.rast.tri == nil {
		return
	}
	for n := 0; n < g.Cfg.RasterThroughput; n++ {
		if cl.rast.next >= len(cl.rast.tiles) {
			g.trace.Span1(emtrace.SrcGPU, cl.track, "raster", cl.rast.startedAt, cycle,
				emtrace.Arg{Key: "tiles", Val: int64(len(cl.rast.tiles))})
			cl.rast.tri = nil
			return
		}
		pos := cl.rast.tiles[cl.rast.next]
		rt := raster.FineRaster(cl.rast.tri, pos[0], pos[1], d.call.Viewport)
		if rt == nil {
			cl.rast.next++
			continue
		}
		if g.Cfg.HiZ && d.call.DepthTest && cl.hiz != nil {
			minZ := float32(math.Inf(1))
			for _, f := range rt.Frags {
				if f.Z < minZ {
					minZ = f.Z
				}
			}
			if !cl.hiz.Test(pos[0], pos[1], minZ) {
				g.hizCulledC.Inc()
				cl.rast.next++
				continue
			}
		}
		if !cl.tc.CanStage() {
			return // backpressure: retry this tile next cycle
		}
		cl.tc.Stage(rt, cycle)
		cl.rast.next++
	}
}

// tileTask tracks one TC tile through fragment shading.
type tileTask struct {
	g         *GPU
	cl        *cluster
	d         *drawState
	tx, ty    int
	remaining int
	fullCover bool
	maxZ      float32
	frags     int
	started   uint64 // launch cycle, for the fragment-shading span
}

// warpRetired runs inside the owning cluster's shard (every warp of a
// tile task launches on one core), so the task fields are shard-local;
// only the draw-wide gauges cross shards and those are atomic.
func (t *tileTask) warpRetired(frags int) {
	t.d.fragsShaded.Add(int64(frags))
	t.g.fragsShadedC.Add(int64(frags))
	t.remaining--
	if t.remaining > 0 {
		return
	}
	t.g.trace.Span1(emtrace.SrcGPU, t.cl.track, "fs_tile", t.started, t.g.cycle,
		emtrace.Arg{Key: "frags", Val: int64(t.frags)})
	t.cl.tc.Complete(t.tx, t.ty)
	t.d.tasksOutstanding.Add(-1)
	// Safe Hi-Z update: full-tile opaque depth-written coverage only.
	if t.g.Cfg.HiZ && t.cl.hiz != nil && t.fullCover &&
		t.d.call.DepthTest && t.d.call.DepthWrite && !t.d.call.Blend {
		px, py := gfx.TCOrigin(t.tx, t.ty)
		t.cl.hiz.Update(px, py, t.maxZ, true)
	}
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
			task := &tileTask{
				g: g, cl: cl, d: d, tx: t.TX, ty: t.TY,
				remaining: warps, fullCover: t.FullCover, maxZ: t.MaxZ,
				frags: len(t.Frags), started: cycle,
			}
			d.tasksOutstanding.Add(1)
			d.fragsLaunched.Add(int64(len(t.Frags)))
			for w := 0; w < warps; w++ {
				lo := w * simt.WarpSize
				hi := lo + simt.WarpSize
				if hi > len(t.Frags) {
					hi = len(t.Frags)
				}
				frags := t.Frags[lo:hi]
				env := &fsEnv{g: g, d: d, task: task, frags: frags}
				var mask uint32
				var specials [simt.WarpSize]shader.Special
				for lane, f := range frags {
					mask |= 1 << lane
					specials[lane] = shader.Special{
						TID:  uint32(lane),
						PX:   uint32(f.X),
						PY:   uint32(f.Y),
						Prim: f.Tri.ID,
						FZ:   mathFloat32bits(f.Z),
					}
				}
				cl.pendingFS.PushBack(&fsLaunch{
					env: env, mask: mask, specials: specials, core: core,
				})
			}
		}
	}
	for cl.pendingFS.Len() > 0 {
		e := *cl.pendingFS.Front()
		core := cl.cores[e.core]
		if e.env.d.call.FS == nil || !core.CanLaunch(e.env.d.call.FS) {
			return
		}
		if _, err := core.Launch(e.env.d.call.FS, e.env, -1, e.mask, e.specials, nil); err != nil {
			return
		}
		g.fsWarpsC.Inc()
		cl.pendingFS.Pop()
	}
}

func mathFloat32bits(f float32) uint32 { return math.Float32bits(f) }
