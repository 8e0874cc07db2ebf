package par

import (
	"context"
	"fmt"

	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/telemetry"
)

// pollMask sets the stride of Loop.Run's poll: every 1024 simulated
// cycles, cheap against the cost of a tick but prompt enough
// (sub-millisecond wall time) for job timeouts to take effect
// mid-simulation.
const pollMask = 1<<10 - 1

// Loop is the run loop of one assembled system (soc.SoC, or
// gpu.Standalone) and the only place its clock advances: one Tick at a
// time while anything is due, straight to the system's next wake when
// nothing is. The owner wires the hooks once at construction; the knobs
// may change between runs.
type Loop struct {
	Cycle *uint64 // the system's clock; Tick advances it by one

	// Skip jumps the clock over stretches where NextWake says every
	// component tick is a gated no-op, so results are bit-identical
	// with it on or off. Skipped counts the cycles jumped over — kept
	// out of the stats registry so both modes hash to the same JSON.
	Skip    bool
	Skipped uint64

	// Polled on the 1024-cycle stride: an attached guard's first
	// violation, the forward-progress watchdog (window in cycles, 0 =
	// off) and a telemetry probe. None of them writes model state.
	Guard    *guard.Checker
	Watchdog uint64
	Probe    *telemetry.Probe

	Tick     func()
	NextWake func() uint64 // earliest cycle any component changes state on its own
	// Charge pays what the ticks of cycles [from, to) would have charged:
	// a wait in the future may still count something every cycle (a
	// refusal, an idle scheduler slot), and the jump that passes those
	// cycles counts it for them. Called on every jump, before the clock
	// moves; jumps stop at every poll boundary, so a poll reads the
	// counts an every-cycle run has there.
	Charge   func(from, to uint64)
	Done     func() bool   // the run's goal is met
	Progress func() uint64 // sum of monotone counters; flat means stalled
	Diagnose func(window uint64) guard.Diag
	Sample   func() telemetry.Sample
}

// Run advances the system until Done, for at most budget cycles. Every
// 1024 cycles it polls the context, the guard and the watchdog, so a
// per-job timeout, corrupt state or a wedged machine stops the loop
// instead of waiting out the budget.
func (l *Loop) Run(ctx context.Context, budget uint64) error {
	start := *l.Cycle
	wd := guard.NewWatchdog(l.Watchdog)
	for *l.Cycle-start < budget {
		c := *l.Cycle
		if c&pollMask == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("run cancelled at cycle %d: %w", c, err)
				}
			}
			if err := l.Guard.Err(); err != nil {
				return fmt.Errorf("aborted at cycle %d: %w", c, err)
			}
			if stalled, window := wd.Check(c, l.Progress()); stalled {
				return &guard.NoProgressError{Diag: l.Diagnose(window)}
			}
			if l.Probe != nil {
				l.Probe.Publish(l.Sample(), func() *guard.Diag {
					d := l.Diagnose(0)
					return &d
				})
			}
		}
		// Jumps stop at the next poll boundary, so polling happens on
		// exactly the cycles of an every-cycle run, and at the budget. A
		// system that is done and will never wake ticks once more so the
		// Done check below ends the run.
		if l.Skip {
			if w := l.NextWake(); w > c && (w != mem.NeverWake || !l.Done()) {
				next := min((c|pollMask)+1, w, start+budget)
				l.Charge(c, next)
				l.Skipped += next - c
				*l.Cycle = next
				continue
			}
		}
		l.Tick()
		if l.Done() {
			return nil
		}
	}
	return fmt.Errorf("not done after %d cycles", budget)
}
