// Package telemetry is the live observability plane for in-flight
// simulations: a sampling probe that rides the run loops' existing
// 1024-cycle context/watchdog poll stride (soc.RunCtx,
// gpu.Standalone.RunUntilIdleCtx) and publishes a lock-cheap atomic
// snapshot of where the simulation is — current cycle, frames retired,
// skipped-cycle ratio, simulated cycles per wall-clock second, and the
// per-component activity behind the forward-progress signature.
//
// The same snapshot serves every consumer: the sweep service's
// GET /jobs/{id} "progress" object, GET /jobs/{id}/diag on-demand
// diagnostics, the -progress stderr tickers on the emerald/memstudy/
// dfsl CLIs, and cmd/sweep's live cell status.
//
// Determinism contract: telemetry reads counters, it never mutates
// model state. The probe is written from the simulation goroutine only
// (inside the stride poll, between ticks) and read from any goroutine
// through an atomic pointer, so attaching a probe cannot perturb
// results — TestTelemetryDigestInvariance enforces exactly that.
package telemetry

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"emerald/internal/guard"
)

// Components breaks the progress signature into per-subsystem monotone
// counters, so a stalled-looking run shows *which* engine is idle.
type Components struct {
	CPUInstructions int64 `json:"cpu_instructions"`
	GPUWork         int64 `json:"gpu_work"` // SIMT instructions + fragments shaded + draws retired
	DRAMBytes       int64 `json:"dram_bytes"`
	DisplayLines    int64 `json:"display_lines"`
	FramesRetired   int64 `json:"frames_retired"`
}

// WorkSig folds the components into one monotone sum, the
// forward-progress watchdog's signature: flat across a window means
// nothing anywhere is advancing.
func (c Components) WorkSig() uint64 {
	return uint64(c.CPUInstructions + c.GPUWork + c.DRAMBytes +
		c.DisplayLines + c.FramesRetired)
}

// Sample is what a run loop hands the probe at each stride poll. All
// fields come from counters the loop already maintains; building one
// is a handful of atomic loads.
type Sample struct {
	Cycle         uint64
	FramesDone    int
	FramesTarget  int // 0 when the run has no frame target (standalone until-idle)
	SkippedCycles uint64
	Components    Components
}

// Progress is the published snapshot, serialized as the "progress"
// object on running jobs and printed by the CLI tickers.
type Progress struct {
	Cycle        uint64 `json:"cycle"`
	FramesDone   int    `json:"frames_done"`
	FramesTarget int    `json:"frames_target,omitempty"`
	// WorkSig is the monotone progress signature (the watchdog's sum);
	// WorkSigDelta is its increase over the last rate window — zero
	// delta with an advancing cycle means the machine is spinning idle.
	WorkSig      uint64 `json:"work_sig"`
	WorkSigDelta uint64 `json:"work_sig_delta"`
	// SkippedCycles / SkipRatio report event-driven idle fast-forwarding
	// (ratio is skipped/current cycle).
	SkippedCycles uint64  `json:"skipped_cycles"`
	SkipRatio     float64 `json:"skip_ratio"`
	// CyclesPerSec is the simulated-cycle rate over the last rate
	// window of wall clock (0 until the first window completes).
	CyclesPerSec float64    `json:"cycles_per_sec"`
	Components   Components `json:"components"`
	SampledAtMS  int64      `json:"sampled_unix_ms"`
}

// diagWaiter is one pending on-demand diagnostic request, fulfilled by
// the simulation goroutine at its next stride poll.
type diagWaiter struct {
	done chan struct{}
	diag *guard.Diag // nil after close(done) means the run finished first
}

// ErrFinished is returned by RequestDiag when the run completed before
// (or while) the request could be served.
var ErrFinished = errors.New("telemetry: run already finished")

// defaultRateWindow is how much wall clock must elapse between
// cycles-per-second recomputations. Stride polls land every ~100µs of
// wall time; computing the rate over a ~quarter-second window keeps it
// readable instead of noisy.
const defaultRateWindow = 250 * time.Millisecond

// Probe connects one logical run (possibly several sequential systems,
// as the figure harnesses build) to its observers. Publish is called
// from the simulation goroutine only; Progress and RequestDiag are safe
// from any goroutine.
type Probe struct {
	cur      atomic.Pointer[Progress]
	req      atomic.Pointer[diagWaiter]
	finished atomic.Bool

	// Rate-window state, owned by the publishing goroutine.
	rateEvery time.Duration
	winWall   time.Time
	winCycle  uint64
	winSig    uint64
	rate      float64
	sigDelta  uint64
}

// NewProbe returns an idle probe ready to attach to a system.
func NewProbe() *Probe {
	return &Probe{rateEvery: defaultRateWindow}
}

// Publish stores a fresh snapshot and serves any pending diagnostic
// request by calling diag (a closure over the live system, invoked on
// the simulation goroutine where its state is quiescent). It performs
// one small allocation and a few atomic operations — cheap against the
// 1024 simulated cycles between calls.
func (p *Probe) Publish(s Sample, diag func() *guard.Diag) {
	now := time.Now()
	sig := s.Components.WorkSig()
	// A cycle or signature moving backwards means a new system was
	// attached to the same probe (the harnesses run several systems
	// sequentially per figure): restart the rate window.
	if p.winWall.IsZero() || s.Cycle < p.winCycle || sig < p.winSig {
		p.winWall, p.winCycle, p.winSig = now, s.Cycle, sig
		p.rate, p.sigDelta = 0, 0
	} else if el := now.Sub(p.winWall); el >= p.rateEvery {
		p.rate = float64(s.Cycle-p.winCycle) / el.Seconds()
		p.sigDelta = sig - p.winSig
		p.winWall, p.winCycle, p.winSig = now, s.Cycle, sig
	}
	pr := &Progress{
		Cycle:         s.Cycle,
		FramesDone:    s.FramesDone,
		FramesTarget:  s.FramesTarget,
		WorkSig:       sig,
		WorkSigDelta:  p.sigDelta,
		SkippedCycles: s.SkippedCycles,
		CyclesPerSec:  p.rate,
		Components:    s.Components,
		SampledAtMS:   now.UnixMilli(),
	}
	if s.Cycle > 0 {
		pr.SkipRatio = float64(s.SkippedCycles) / float64(s.Cycle)
	}
	p.cur.Store(pr)

	if w := p.req.Swap(nil); w != nil {
		if diag != nil {
			w.diag = diag()
		}
		close(w.done)
	}
}

// Progress returns the latest snapshot; ok is false before the first
// Publish.
func (p *Probe) Progress() (Progress, bool) {
	cur := p.cur.Load()
	if cur == nil {
		return Progress{}, false
	}
	return *cur, true
}

// RequestDiag asks the simulation goroutine for a diagnostic bundle —
// the same CPU/warp/MSHR/DRAM/NoC/emtrace snapshot a watchdog abort
// produces, but captured from a live healthy run — and waits until the
// next stride poll serves it (microseconds of wall time while a
// simulation is running). Concurrent requests coalesce onto one
// waiter. Returns ErrFinished when the run ended first.
func (p *Probe) RequestDiag(ctx context.Context) (*guard.Diag, error) {
	for {
		if p.finished.Load() {
			return nil, ErrFinished
		}
		w := p.req.Load()
		if w == nil {
			w = &diagWaiter{done: make(chan struct{})}
			if !p.req.CompareAndSwap(nil, w) {
				continue // raced another requester; share its waiter
			}
			// Finish sets finished before swapping the waiter out, so if
			// the run ended between our check above and the CAS, reclaim
			// the waiter rather than blocking until ctx expires.
			if p.finished.Load() && p.req.CompareAndSwap(w, nil) {
				return nil, ErrFinished
			}
		}
		select {
		case <-w.done:
			if w.diag == nil {
				return nil, ErrFinished
			}
			return w.diag, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Finish marks the run complete: pending and future RequestDiag calls
// fail fast with ErrFinished. The last published Progress stays
// readable. Idempotent.
func (p *Probe) Finish() {
	p.finished.Store(true)
	if w := p.req.Swap(nil); w != nil {
		close(w.done) // diag stays nil → waiter sees ErrFinished
	}
}

// ctxKey keys the probe in a context. The sweep runner threads a
// per-job probe through the executor's context so the Exec signature
// (and its ~15 test injection sites) stays unchanged.
type ctxKey struct{}

// NewContext returns ctx carrying the probe.
func NewContext(ctx context.Context, p *Probe) context.Context {
	return context.WithValue(ctx, ctxKey{}, p)
}

// FromContext returns the probe carried by ctx, or nil.
func FromContext(ctx context.Context) *Probe {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(ctxKey{}).(*Probe)
	return p
}
