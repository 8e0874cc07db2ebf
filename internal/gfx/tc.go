package gfx

import (
	"slices"

	"emerald/internal/raster"
	"emerald/internal/stats"
)

// TCConfig configures one cluster's tile-coalescing stage (paper Table 7
// and Figure 7).
type TCConfig struct {
	Engines       int    // TC engines per cluster
	BinsPerEngine int    // raster tiles staged per engine
	FlushTimeout  uint64 // cycles without new raster tiles before flush
	ReadyDepth    int    // ready-queue entries before backpressure
}

// DefaultTCConfig mirrors Table 7.
func DefaultTCConfig() TCConfig {
	return TCConfig{Engines: 2, BinsPerEngine: 4, FlushTimeout: 32, ReadyDepth: 32}
}

// TCTileOut is a coalesced TC tile handed to a SIMT core for fragment
// shading: up to 8x8 pixels gathered from one or more primitives'
// raster tiles, all within one screen-space TC tile.
type TCTileOut struct {
	TX, TY int // TC tile coordinates
	Frags  []raster.Fragment
	Prims  int // distinct primitives coalesced
	// FullCover reports every pixel of the TC tile covered (enables the
	// safe Hi-Z update).
	FullCover bool
	// MaxZ is the maximum fragment depth (for the Hi-Z update).
	MaxZ float32
}

// fullTCMask covers all 64 pixels of an 8x8 TC tile.
const fullTCMask = ^uint64(0)

type tcEngine struct {
	active     bool
	tx, ty     int
	covered    uint64 // pixel occupancy bitmap of the 8x8 tile
	frags      []raster.Fragment
	prims      []uint32 // distinct primitive ids staged, at most one per bin
	bins       int
	lastStaged uint64
}

// TCUnit is one cluster's tile coalescer. It consumes raster tiles from
// fine rasterization (or Hi-Z) and produces TC tiles, guaranteeing that
// only one TC tile per screen position is being shaded at a time so
// in-shader depth/blend operations stay race-free (paper §3.3.5).
type TCUnit struct {
	cfg     TCConfig
	engines []*tcEngine

	ready []*TCTileOut
	// inflight lists the TC-tile positions being shaded: a handful (one
	// per tile task the cluster's cores have not retired), searched
	// linearly.
	inflight [][2]int

	coalesced, flushFull, flushConflict, flushTimeout, flushEvict *stats.Counter
	tilesOut                                                      *stats.Counter
}

// NewTCUnit builds a TC unit. reg may be nil.
func NewTCUnit(cfg TCConfig, reg *stats.Registry) *TCUnit {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.Engines < 1 {
		cfg = DefaultTCConfig()
	}
	u := &TCUnit{
		cfg:           cfg,
		coalesced:     reg.Counter("tc.raster_tiles_staged"),
		flushFull:     reg.Counter("tc.flush_full"),
		flushConflict: reg.Counter("tc.flush_conflict"),
		flushTimeout:  reg.Counter("tc.flush_timeout"),
		flushEvict:    reg.Counter("tc.flush_evict"),
		tilesOut:      reg.Counter("tc.tc_tiles_out"),
	}
	for i := 0; i < cfg.Engines; i++ {
		u.engines = append(u.engines, &tcEngine{})
	}
	return u
}

// CanStage reports whether the unit can accept more raster tiles (ready
// queue backpressure).
func (u *TCUnit) CanStage() bool { return len(u.ready) < u.cfg.ReadyDepth }

// Stage adds a raster tile. The caller must check CanStage first.
func (u *TCUnit) Stage(rt *raster.RasterTile, cycle uint64) {
	u.coalesced.Inc()
	tx, ty := TCTile(rt.TileX, rt.TileY)

	// Compute this raster tile's pixel mask within the 8x8 TC tile.
	px0, py0 := TCOrigin(tx, ty)
	var mask uint64
	dx := rt.TileX - px0
	dy := rt.TileY - py0
	for bit := 0; bit < 16; bit++ {
		if rt.Coverage&(1<<bit) != 0 {
			x := dx + bit%raster.RasterTileSize
			y := dy + bit/raster.RasterTileSize
			mask |= 1 << (y*TCTilePx + x)
		}
	}

	// Engine already coalescing this TC tile position?
	var eng *tcEngine
	for _, e := range u.engines {
		if e.active && e.tx == tx && e.ty == ty {
			eng = e
			break
		}
	}
	if eng != nil && eng.covered&mask != 0 {
		// Overlapping pixels from a later primitive: flush the staged
		// tile (depth/blend order must be preserved) and restart.
		u.flush(eng, u.flushConflict)
		eng = nil
	}
	if eng == nil {
		// Find a free engine, or evict the least-recently staged.
		var oldest *tcEngine
		for _, e := range u.engines {
			if !e.active {
				eng = e
				break
			}
			if oldest == nil || e.lastStaged < oldest.lastStaged {
				oldest = e
			}
		}
		if eng == nil {
			u.flush(oldest, u.flushEvict)
			eng = oldest
		}
		eng.active = true
		eng.tx, eng.ty = tx, ty
		eng.covered = 0
		eng.frags = nil
		eng.prims = eng.prims[:0]
		eng.bins = 0
	}

	eng.covered |= mask
	eng.frags = append(eng.frags, rt.Frags...)
	if !slices.Contains(eng.prims, rt.Tri.ID) {
		eng.prims = append(eng.prims, rt.Tri.ID)
	}
	eng.bins++
	eng.lastStaged = cycle

	if eng.bins >= u.cfg.BinsPerEngine || eng.covered == fullTCMask {
		u.flush(eng, u.flushFull)
	}
}

// Tick applies the no-new-tiles flush timeout.
func (u *TCUnit) Tick(cycle uint64) {
	for _, e := range u.engines {
		if e.active && cycle-e.lastStaged >= u.cfg.FlushTimeout {
			u.flush(e, u.flushTimeout)
		}
	}
}

func (u *TCUnit) flush(e *tcEngine, reason *stats.Counter) {
	if !e.active || len(e.frags) == 0 {
		e.active = false
		return
	}
	reason.Inc()
	out := &TCTileOut{
		TX: e.tx, TY: e.ty,
		Frags:     e.frags,
		Prims:     len(e.prims),
		FullCover: e.covered == fullTCMask,
	}
	for _, f := range out.Frags {
		if f.Z > out.MaxZ {
			out.MaxZ = f.Z
		}
	}
	u.ready = append(u.ready, out)
	u.tilesOut.Inc()
	e.active = false
	e.frags = nil
}

// FlushAll force-flushes every engine (end of draw).
func (u *TCUnit) FlushAll() {
	for _, e := range u.engines {
		u.flush(e, u.flushTimeout)
	}
}

// PopReady returns the next TC tile whose screen position is not already
// being shaded, marking it in flight; nil if none available. Per-position
// order is preserved (the ready queue is scanned front to back).
func (u *TCUnit) PopReady() *TCTileOut {
	for i, t := range u.ready {
		pos := [2]int{t.TX, t.TY}
		if slices.Contains(u.inflight, pos) {
			continue
		}
		u.inflight = append(u.inflight, pos)
		last := len(u.ready) - 1
		copy(u.ready[i:], u.ready[i+1:])
		u.ready[last] = nil // the vacated tail slot pins no tile
		u.ready = u.ready[:last]
		return t
	}
	return nil
}

// Complete releases the in-flight reservation for a TC tile position,
// allowing the next tile at the same position to issue.
func (u *TCUnit) Complete(tx, ty int) {
	if i := slices.Index(u.inflight, [2]int{tx, ty}); i >= 0 {
		last := len(u.inflight) - 1
		u.inflight[i] = u.inflight[last]
		u.inflight = u.inflight[:last]
	}
}

// Drained reports whether no tiles are staged, ready or in flight.
func (u *TCUnit) Drained() bool {
	if len(u.ready) > 0 || len(u.inflight) > 0 {
		return false
	}
	for _, e := range u.engines {
		if e.active && len(e.frags) > 0 {
			return false
		}
	}
	return true
}

// TilesOut reports how many TC tiles have been emitted.
func (u *TCUnit) TilesOut() int64 { return u.tilesOut.Value() }
