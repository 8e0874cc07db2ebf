// Package soc implements Emerald's full-system mode (paper Figures 1 and
// 8b): CPU cores running the frame-production workload, the GPU, a
// display controller, a coherent system NoC and shared DRAM. It is the
// substrate for Case Study I (memory organization and scheduling).
//
// Time scaling: the paper simulates wall-clock frame periods (16 ms
// display, 33 ms GPU at ~1 GHz = millions of cycles per frame). To keep
// experiment turnaround tractable, the SoC uses *scaled* frame periods
// (hundreds of thousands of cycles) with the framebuffer sized so the
// bandwidth ratios between display scan-out, GPU rendering and CPU
// traffic match the paper's regime. EXPERIMENTS.md documents the scaling.
package soc

import (
	"fmt"

	"emerald/internal/emtrace"
	"emerald/internal/gfx"
	"emerald/internal/mem"
	"emerald/internal/stats"
)

// Display is the scan-out DMA engine: it reads the front framebuffer
// sequentially once per refresh period. If a scan cannot finish within
// its period the frame is dropped and the scan restarts — the feedback
// loop the paper observes under DASH (Figure 14, callout 6).
type Display struct {
	Period uint64 // cycles per refresh
	fb     gfx.Surface

	reqBytes   uint32
	totalReqs  int
	issued     int
	completed  int
	inflight   []*mem.Request
	reqs       mem.Pool // scan-out reads return here once seen Done
	frameStart uint64

	// Out is drained by the SoC into the system NoC.
	Out *mem.Queue

	served, shown, dropped *stats.Counter

	trace *emtrace.Tracer
}

// AttachTracer arms refresh-span tracing on the display.
func (d *Display) AttachTracer(t *emtrace.Tracer) { d.trace = t }

// NewDisplay creates a display controller. reg may be nil.
func NewDisplay(period uint64, reg *stats.Registry) *Display {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	s := reg.Scope("display")
	return &Display{
		Period:   period,
		reqBytes: 64,
		Out:      mem.NewQueue(0),
		served:   s.Counter("requests_served"),
		shown:    s.Counter("frames_shown"),
		dropped:  s.Counter("frames_dropped"),
	}
}

// SetFrontBuffer points scan-out at a surface (flip).
func (d *Display) SetFrontBuffer(fb gfx.Surface) {
	d.fb = fb
}

// Served returns the number of scan-out requests completed by DRAM.
func (d *Display) Served() int64 { return d.served.Value() }

// FramesShown returns complete refreshes.
func (d *Display) FramesShown() int64 { return d.shown.Value() }

// FramesDropped returns refreshes aborted for missing their deadline.
func (d *Display) FramesDropped() int64 { return d.dropped.Value() }

// Tick advances the display one cycle.
func (d *Display) Tick(cycle uint64) {
	if d.fb.Width == 0 {
		return
	}
	if d.totalReqs == 0 {
		// First kickoff: scanning starts at the first refresh boundary,
		// not at whatever cycle the first Tick happens to land on. Tick
		// and NextWake agree the panel is parked until then, so a
		// configured-but-idle display cannot busy-pin the loop (and the
		// kickoff cycle does not depend on how often the owner ticked).
		if cycle < d.frameStart+d.Period {
			return
		}
		d.beginScan(cycle)
	}

	// Retire completed reads.
	kept := d.inflight[:0]
	for _, r := range d.inflight {
		if r.Done {
			d.completed++
			d.served.Inc()
			d.reqs.Put(r)
		} else {
			kept = append(kept, r)
		}
	}
	clear(d.inflight[len(kept):])
	d.inflight = kept

	// Deadline check.
	if cycle-d.frameStart >= d.Period {
		if d.completed >= d.totalReqs {
			d.shown.Inc()
			d.trace.Span1(emtrace.SrcSoC, "display", "refresh", d.frameStart, cycle,
				emtrace.Arg{Key: "reqs", Val: int64(d.completed)})
		} else {
			d.dropped.Inc()
			d.trace.Span1(emtrace.SrcSoC, "display", "refresh_drop", d.frameStart, cycle,
				emtrace.Arg{Key: "missing", Val: int64(d.totalReqs - d.completed)})
		}
		d.beginScan(cycle)
		return
	}

	// Pace issues across the period, aiming to finish at ~90% of it so
	// in-flight tail requests can retire before the deadline.
	elapsed := cycle - d.frameStart
	budget := d.Period * 9 / 10
	if budget == 0 {
		budget = 1
	}
	target := int(uint64(d.totalReqs) * elapsed / budget)
	if target > d.totalReqs {
		target = d.totalReqs
	}
	for d.issued < target && len(d.inflight) < 8 {
		addr := d.fb.Base + uint64(d.issued)*uint64(d.reqBytes)
		if d.Out.Full() {
			break
		}
		r := d.reqs.New(mem.Request{
			Addr: addr, Size: d.reqBytes, Kind: mem.Read,
			Client: mem.ClientDisplay, IssuedAt: cycle,
		})
		d.Out.MustPush(r)
		d.inflight = append(d.inflight, r)
		d.issued++
	}
}

// NextWake returns the earliest future cycle at which the display's
// state can change on its own: now when a scan must start, a completed
// read must retire or queued output must drain; otherwise the earlier
// of the refresh deadline and the pace-driven next issue slot. The
// pacing wake mirrors Tick's target arithmetic exactly (target >=
// issued+1 ⇔ elapsed >= ceil((issued+1)*budget/totalReqs)) and is only
// a wake source while the in-flight window has room — a full window
// advances via request completions, which DRAM's NextWake bounds.
func (d *Display) NextWake(cycle uint64) uint64 {
	if d.fb.Width == 0 {
		return mem.NeverWake
	}
	if d.totalReqs == 0 {
		// Awaiting first kickoff: parked until the first refresh
		// boundary (mirrors Tick exactly). Returning "now" here would
		// busy-pin the whole loop on an idle panel.
		if w := d.frameStart + d.Period; w > cycle {
			return w
		}
		return cycle
	}
	if d.Out.Len() > 0 {
		return cycle
	}
	for _, r := range d.inflight {
		if r.Done {
			return cycle
		}
	}
	deadline := d.frameStart + d.Period
	if deadline <= cycle {
		return cycle
	}
	wake := deadline
	if d.issued < d.totalReqs && len(d.inflight) < 8 {
		budget := d.Period * 9 / 10
		if budget == 0 {
			budget = 1
		}
		e := (uint64(d.issued+1)*budget + uint64(d.totalReqs) - 1) / uint64(d.totalReqs)
		if t := d.frameStart + e; t < wake {
			wake = t
		}
	}
	if wake <= cycle {
		return cycle
	}
	return wake
}

func (d *Display) beginScan(cycle uint64) {
	d.totalReqs = (d.fb.SizeBytes() + int(d.reqBytes) - 1) / int(d.reqBytes)
	d.issued = 0
	d.completed = 0
	// Reads of an abandoned scan are still on their way to DRAM: they
	// are dropped here, never recycled (nobody will see them Done).
	clear(d.inflight)
	d.inflight = d.inflight[:0]
	d.frameStart = cycle
}

// checkRequests audits the request ownership rule from the display's
// side: a read it still waits on, or has queued, is not on its free
// list.
func (d *Display) checkRequests(uint64) error {
	for _, r := range d.inflight {
		if r.Released() {
			return fmt.Errorf("display waits on a released request")
		}
	}
	return d.Out.AuditReleased()
}

// Progress returns the fraction of the current scan completed (DASH
// feedback).
func (d *Display) Progress() float64 {
	if d.totalReqs == 0 {
		return 1
	}
	return float64(d.completed) / float64(d.totalReqs)
}

// FrameStart returns the cycle the current scan began.
func (d *Display) FrameStart() uint64 { return d.frameStart }
