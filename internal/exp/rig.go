package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"

	"emerald/internal/emtrace"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/guard"
	"emerald/internal/par"
	"emerald/internal/sample"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
	"emerald/internal/trace"
)

// This file is the rig around the model: the one place a system is
// armed from Options, and the one place the Case Study II system (the
// Table 7 GPU, a GL context on the shared heap) is assembled.

// guardEnv force-enables invariant checking for every harness-built
// system (EMERALD_GUARD=1) without plumbing a flag through each test.
var guardEnv = os.Getenv("EMERALD_GUARD") == "1"

// armable is the instrumentation surface soc.SoC and gpu.Standalone
// share.
type armable interface {
	AttachTracer(*emtrace.Tracer)
	AttachGuard(*guard.Checker)
	SetWatchdog(uint64)
	SetParallel(*par.Pool)
	SetIdleSkip(bool)
	SetEventWheel(bool)
	SetProbe(*telemetry.Probe)
}

// arm applies the harness half of opt to a freshly built system: the
// tracer, the invariant checker, the watchdog, the tick-engine pool,
// the time-advance mode and the telemetry probe, in that order.
func arm(sys armable, opt Options) {
	if opt.Trace != nil {
		sys.AttachTracer(opt.Trace)
	}
	if opt.Guard || guardEnv {
		sys.AttachGuard(guard.NewChecker())
	}
	sys.SetWatchdog(opt.WatchdogCycles)
	sys.SetParallel(opt.Pool)
	sys.SetIdleSkip(!opt.EveryCycle)
	sys.SetEventWheel(!opt.EveryCycle)
	sys.SetProbe(opt.Probe)
}

// newStandalone builds the armed Table 7 system and a GL context that
// submits into it. reg may be nil.
func newStandalone(opt Options, reg *stats.Registry) (*gpu.Standalone, *gl.Context) {
	s := gpu.DefaultStandalone(reg)
	arm(s, opt)
	ctx := gl.NewContext(s.Mem(), gl.HeapBase, gl.HeapSize)
	ctx.Submit = func(call *gpu.DrawCall) error { return s.GPU.SubmitDraw(call, nil) }
	ctx.OnClearDepth = s.GPU.ClearHiZ
	return s, ctx
}

// Replay is the Table 7 system wired for trace replay: every submitted
// draw runs to completion before the next op, matching the
// straight-through CS2 renderer's submit-then-drain loop. Its registry
// is private, so its end-state digest covers this system alone.
type Replay struct {
	S   *gpu.Standalone
	Ctx *gl.Context

	mark uint64
}

// NewReplay builds a replay system armed from opt; opt.Ctx and
// opt.BudgetCycles bound each draw.
func NewReplay(opt Options) *Replay {
	s, ctx := newStandalone(opt, nil)
	submit := ctx.Submit
	ctx.Submit = func(call *gpu.DrawCall) error {
		if err := submit(call); err != nil {
			return err
		}
		_, err := s.RunUntilIdleCtx(opt.Ctx, opt.BudgetCycles)
		return err
	}
	return &Replay{S: s, Ctx: ctx}
}

// RunRegion restores cp — the checkpoint at the first detailed frame,
// warmup frames before start — and replays span frames from start in
// detail, returning their per-frame cycles. Frames before the
// checkpoint replay state-only, to rebuild the GL context.
func (r *Replay) RunRegion(tr *trace.Trace, cp *trace.Checkpoint, start, warmup, span int) ([]uint64, error) {
	rr := &sample.RegionRun{
		Trace: tr, CP: cp, Start: start, Span: span, Warmup: warmup,
		Ctx: r.Ctx, Mem: r.S.Mem(),
		OnRestore: func() {
			// The functional checkpoint carries no Hi-Z; drop any built
			// during the (draw-free) prefix and adopt the snapshot clock.
			r.S.GPU.ClearHiZ()
			if err := r.S.ResumeAt(cp.Cycle); err != nil {
				panic(fmt.Sprintf("exp: region restore on busy system: %v", err))
			}
			r.mark = r.S.Cycle()
		},
		Drain: func(int) (uint64, error) {
			// Draws already drained at submit; account the frame's cycles.
			c := r.S.Cycle()
			d := c - r.mark
			r.mark = c
			return d, nil
		},
	}
	return rr.Run()
}

// digest hashes the system's observable end state — registry JSON,
// framebuffer, final cycle — the same SHA-256 gate pattern as the
// workers/skip determinism tests.
func (r *Replay) digest() (string, error) {
	var buf bytes.Buffer
	if err := r.S.Reg.DumpJSON(&buf); err != nil {
		return "", err
	}
	cs := r.Ctx.ColorSurface()
	fb := make([]byte, cs.Width*cs.Height*4)
	r.S.Mem().Read(cs.Base, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d", r.S.Cycle())
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
