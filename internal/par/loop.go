package par

import (
	"context"
	"fmt"

	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/telemetry"
)

// pollMask sets the stride of Run's poll: every 1024 simulated cycles,
// cheap against the cost of a tick but prompt enough (sub-millisecond
// wall time) for job timeouts to take effect mid-simulation.
const pollMask = 1<<10 - 1

// Part is one component of a system as its Loop drives it.
type Part struct {
	Tick func(c uint64)
	// NextWake is the earliest cycle, at or after c, at which the part's
	// Tick would do anything: c or earlier when it is due.
	NextWake func(c uint64) uint64
	// Charge pays what n ticks of a wait would have charged, the last of
	// them at cycle last: a wait may still count something every cycle
	// (a refusal, an idle scheduler slot). nil charges nothing.
	Charge func(last, n uint64)
	// SelfGated marks a part whose Tick gates itself on its own wake,
	// charging a cycle it is not due, as cheaply as the loop could ask:
	// the loop ticks it on every cycle it does not jump and asks its
	// NextWake only to decide a jump.
	SelfGated bool
}

// Hooks are what a Loop reads of its system besides the parts.
type Hooks struct {
	Done     func() bool // the run's goal is met
	Diagnose func(window uint64) guard.Diag
	// Sample snapshots the system's monotone counters at each stride
	// poll, for the probe and, through its WorkSig, the watchdog.
	Sample func() telemetry.Sample
}

// Loop is the run loop of one assembled system (soc.SoC, or
// gpu.Standalone) and the only place its clock advances. Each cycle it
// walks its parts in list order: with parking on, a part that is due
// at its turn (after the parts before it have ticked this cycle) is
// ticked and one that is not is charged for the cycle; with parking
// off, or under a guard, every part is ticked. When no part is due and
// idle skip is on, the clock jumps to the earliest wake, and every part
// is charged for the cycles passed. A part's Tick on a cycle it is not
// due is a gated no-op apart from its charge, so results are
// bit-identical whatever the two knobs say. A system embeds its loop,
// built once by NewLoop; the knobs may change between runs.
type Loop struct {
	cycle *uint64 // the system's clock
	parts []Part  // in tick order: effects within a cycle keep it
	hooks Hooks

	skip, park bool
	// skipped counts the cycles jumped over, kept out of the stats
	// registry so every mode hashes to the same JSON.
	skipped uint64

	// Polled on the 1024-cycle stride: an attached guard's first
	// violation (its probes also run at the end of every ticked cycle),
	// the forward-progress watchdog (window in cycles, 0 = off) and a
	// telemetry probe. None of them writes model state.
	guard    *guard.Checker
	watchdog uint64
	probe    *telemetry.Probe
}

// NewLoop builds the loop of the system whose clock is cycle, with
// idle skip and parking on.
func NewLoop(cycle *uint64, parts []Part, h Hooks) Loop {
	return Loop{cycle: cycle, parts: parts, hooks: h, skip: true, park: true}
}

// SetIdleSkip turns clock jumps over cycles where no part is due on or
// off.
func (l *Loop) SetIdleSkip(on bool) { l.skip = on }

// SetEventWheel turns parking on or off: a part that is not due is
// charged for the cycle instead of ticked. The name predates the
// parts' memoised wakes; no wheel is left.
func (l *Loop) SetEventWheel(on bool) { l.park = on }

// SetWatchdog arms the forward-progress watchdog: Run aborts with a
// guard.NoProgressError when the work signature of the system's Sample
// stays flat for window cycles (guard.NewWatchdog clamps it to
// guard.MinWatchdogWindow; 0 disables).
func (l *Loop) SetWatchdog(window uint64) { l.watchdog = window }

// SetProbe attaches a telemetry probe: Run publishes a progress
// snapshot to it at every stride poll and serves its on-demand
// diagnostic requests. nil detaches. The probe reads monotone counters
// only.
func (l *Loop) SetProbe(p *telemetry.Probe) { l.probe = p }

// AttachGuard makes the loop tick every part and run g's probes at the
// end of every cycle. The system's AttachGuard calls it after arming
// its components.
func (l *Loop) AttachGuard(g *guard.Checker) { l.guard = g }

// SkippedCycles returns the number of cycles jumped over since
// construction.
func (l *Loop) SkippedCycles() uint64 { return l.skipped }

// Step advances the system one cycle by the gate rule, without a jump.
func (l *Loop) Step() {
	c := *l.cycle
	park := l.park && !l.guard.Enabled()
	for i := range l.parts {
		p := &l.parts[i]
		if !park || p.SelfGated || p.NextWake(c) <= c {
			p.Tick(c)
		} else if p.Charge != nil {
			p.Charge(c, 1)
		}
	}
	l.guard.Tick(c)
	*l.cycle = c + 1
}

// Run advances l's system until its Done hook holds, for at most
// budget cycles. Every 1024 cycles it polls the context, the guard and
// the watchdog, so a per-job timeout, corrupt state or a wedged
// machine stops the loop instead of waiting out the budget. It is a
// function, not a method, so that a system embedding its loop keeps
// one run entry point of its own.
func Run(ctx context.Context, l *Loop, budget uint64) error {
	start := *l.cycle
	wd := guard.NewWatchdog(l.watchdog)
	for *l.cycle-start < budget {
		c := *l.cycle
		if c&pollMask == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("run cancelled at cycle %d: %w", c, err)
				}
			}
			if err := l.guard.Err(); err != nil {
				return fmt.Errorf("aborted at cycle %d: %w", c, err)
			}
			s := l.hooks.Sample()
			if stalled, window := wd.Check(c, s.Components.WorkSig()); stalled {
				return &guard.NoProgressError{Diag: l.hooks.Diagnose(window)}
			}
			if l.probe != nil {
				l.probe.Publish(s, func() *guard.Diag {
					d := l.hooks.Diagnose(0)
					return &d
				})
			}
		}
		// Jumps stop at the next poll boundary, so polling happens on
		// exactly the cycles of an every-cycle run, and at the budget. A
		// system that is done and will never wake ticks once more so the
		// Done check below ends the run.
		if l.skip {
			w := mem.NeverWake
			for i := range l.parts {
				if w = min(w, l.parts[i].NextWake(c)); w <= c {
					break
				}
			}
			if w > c && (w != mem.NeverWake || !l.hooks.Done()) {
				next := min((c|pollMask)+1, w, start+budget)
				for i := range l.parts {
					if p := &l.parts[i]; p.Charge != nil {
						p.Charge(next-1, next-c)
					}
				}
				l.skipped += next - c
				*l.cycle = next
				continue
			}
		}
		l.Step()
		if l.hooks.Done() {
			return nil
		}
	}
	return fmt.Errorf("not done after %d cycles", budget)
}
