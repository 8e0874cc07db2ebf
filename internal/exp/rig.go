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
	SetIdleSkip(bool)
	SetEventWheel(bool)
	SetProbe(*telemetry.Probe)
}

// arm applies the harness half of opt to a freshly built system: the
// tracer, the invariant checker, the watchdog, the time-advance mode
// and the telemetry probe, in that order.
func arm(sys armable, opt Options) {
	if opt.Trace != nil {
		sys.AttachTracer(opt.Trace)
	}
	if opt.Guard || guardEnv {
		sys.AttachGuard(guard.NewChecker())
	}
	sys.SetWatchdog(opt.WatchdogCycles)
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

// RunRegion replays span frames (at least one, clamped to the trace)
// from start in detail from cp, returning their per-frame cycles. The
// trace is cp's own. Frames before cp.Frame replay state-only, with
// draws gated out, to rebuild the GL context; then memory is restored
// and frames cp.Frame..start-1 run in detail unmeasured, as warm-up:
// the restore is bit-exact for functional memory, but caches, Hi-Z and
// DRAM row buffers start cold.
func (r *Replay) RunRegion(cp *trace.Checkpoint, start, span int) ([]uint64, error) {
	fd := cp.Trace.FrameDraws()
	if start < cp.Frame || start >= len(fd) {
		return nil, fmt.Errorf("exp: region start %d outside frames [%d,%d) of the checkpoint's trace", start, cp.Frame, len(fd))
	}
	end := min(start+max(span, 1), len(fd)) - 1

	// Draws replay only inside [cp.Frame, end]. A window with no draws
	// gates everything out (LastDraw must stay >= 0: negative means "to
	// the end").
	opt := trace.ReplayAll()
	opt.FirstDraw, opt.LastDraw = 1<<30, 1<<30
	if first, next := fd[cp.Frame][0], fd[end][1]; first < next {
		opt.FirstDraw, opt.LastDraw = first, next-1
	}
	var mark uint64
	restore := func() error {
		cp.RestoreMemory(r.S.Mem())
		// The functional checkpoint carries no Hi-Z; drop any built
		// during the (draw-free) prefix and adopt the snapshot clock.
		r.S.GPU.ClearHiZ()
		if err := r.S.ResumeAt(cp.Cycle); err != nil {
			return fmt.Errorf("exp: region restore: %w", err)
		}
		mark = r.S.Cycle()
		return nil
	}
	if cp.Frame == 0 {
		if err := restore(); err != nil {
			return nil, err
		}
	}
	cycles := make([]uint64, 0, end-start+1)
	opt.OnFrameEnd = func(f int) error {
		if f == cp.Frame-1 {
			return restore()
		}
		if f < cp.Frame {
			return nil
		}
		// Draws already drained at submit: the frame took the cycles
		// since the last mark.
		c := r.S.Cycle()
		if f >= start {
			cycles = append(cycles, c-mark)
		}
		mark = c
		if f == end {
			return trace.ErrStop
		}
		return nil
	}
	if err := trace.Replay(cp.Trace, r.Ctx, opt); err != nil {
		return nil, fmt.Errorf("exp: region [%d,%d]: %w", start, end, err)
	}
	return cycles, nil
}

// digest hashes the system's observable end state — registry JSON,
// framebuffer, final cycle — the same SHA-256 gate pattern as the
// time-advance determinism tests.
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
