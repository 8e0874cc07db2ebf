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
	// wake is the next cycle with work of the display's own, as the
	// last Tick (or, before the first kickoff, SetFrontBuffer) found it.
	wake uint64
	// done counts the scan-out reads DRAM has completed (the display is
	// their DoneWatcher) and seen what the last Tick had counted, so
	// NextWake sees a completion without scanning the window.
	done, seen uint64

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

// SetFrontBuffer points scan-out at a surface (flip). A display that
// has not started scanning starts at the first refresh boundary.
func (d *Display) SetFrontBuffer(fb gfx.Surface) {
	d.fb = fb
	if d.totalReqs == 0 {
		d.wake = d.frameStart + d.Period
	}
}

// Served returns the number of scan-out requests completed by DRAM.
func (d *Display) Served() int64 { return d.served.Value() }

// FramesShown returns complete refreshes.
func (d *Display) FramesShown() int64 { return d.shown.Value() }

// FramesDropped returns refreshes aborted for missing their deadline.
func (d *Display) FramesDropped() int64 { return d.dropped.Value() }

// Tick advances the display one cycle and records the next cycle at
// which it has work of its own (wake): the refresh deadline, or the
// pace's next issue slot while the in-flight window has room (a full
// window moves on read completions, which reach it from outside).
func (d *Display) Tick(cycle uint64) {
	if d.fb.Width == 0 {
		return
	}
	if d.totalReqs == 0 {
		// First kickoff: scanning starts at the first refresh boundary,
		// not at whatever cycle the first Tick happens to land on, so a
		// configured-but-idle display cannot busy-pin the loop (and the
		// kickoff cycle does not depend on how often the owner ticked).
		if cycle < d.frameStart+d.Period {
			return
		}
		d.beginScan(cycle)
	}

	// Retire completed reads.
	d.seen = d.done
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

	// At the deadline the scan is shown or dropped and restarts; before
	// it, issues are paced across the period, aiming to finish at ~90%
	// of it so in-flight tail requests can retire in time.
	budget := max(d.Period*9/10, 1)
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
	} else {
		target := min(int(uint64(d.totalReqs)*(cycle-d.frameStart)/budget), d.totalReqs)
		for d.issued < target && len(d.inflight) < 8 && !d.Out.Full() {
			r := d.reqs.New(mem.Request{
				Addr: d.fb.Base + uint64(d.issued)*uint64(d.reqBytes), Size: d.reqBytes,
				Kind: mem.Read, Client: mem.ClientDisplay, IssuedAt: cycle, Tag: d,
			})
			d.Out.MustPush(r)
			d.inflight = append(d.inflight, r)
			d.issued++
		}
	}
	// The target reaches issued+1 once cycle-frameStart >=
	// ceil((issued+1)*budget/totalReqs).
	d.wake = d.frameStart + d.Period
	if d.issued < d.totalReqs && len(d.inflight) < 8 {
		e := (uint64(d.issued+1)*budget + uint64(d.totalReqs) - 1) / uint64(d.totalReqs)
		d.wake = min(d.wake, d.frameStart+e)
	}
}

// NextWake returns the earliest future cycle at which the display's
// state can change: the wake its last Tick recorded, or now when input
// has reached it from outside since (a read DRAM completed, requests
// its owner has not drained).
func (d *Display) NextWake(cycle uint64) uint64 {
	if d.fb.Width == 0 {
		return mem.NeverWake
	}
	if d.Out.Len() > 0 || d.done != d.seen {
		return cycle
	}
	return max(d.wake, cycle)
}

// RequestDone implements mem.DoneWatcher: DRAM completed a scan-out
// read.
func (d *Display) RequestDone(*mem.Request) { d.done++ }

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
