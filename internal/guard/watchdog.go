// Forward-progress watchdog support: the run loops (soc.RunCtx,
// gpu.Standalone.RunUntilIdleCtx) track a monotone progress signature —
// the sum of instructions retired, memory bytes served, fragments
// shaded, frames completed — and abort with a NoProgressError carrying
// a diagnostic bundle when the signature stays flat for a full window.
package guard

import (
	"fmt"
	"strings"
)

// MinWatchdogWindow is the floor applied to configured watchdog
// windows. Run loops only sample the progress signature at their
// context-poll stride (every 1024 cycles), so a window below the
// stride could not be honored; clamping keeps the detection-latency
// bound (at most window + one poll stride, i.e. under 2x the window).
const MinWatchdogWindow = 2048

// ClampWindow applies MinWatchdogWindow to a configured window.
// Zero stays zero (watchdog disabled).
func ClampWindow(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	if n < MinWatchdogWindow {
		return MinWatchdogWindow
	}
	return n
}

// Section is one titled block of a diagnostic bundle, e.g. the per-warp
// state of a single SIMT core or a DRAM channel's queue occupancy.
type Section struct {
	Title string   `json:"title"`
	Lines []string `json:"lines"`
}

// Diag is the structured diagnostic bundle attached to a watchdog
// abort — a snapshot of where every layer of the machine was stuck —
// and, since the telemetry plane landed, also captured on demand from
// live healthy runs (GET /jobs/{id}/diag), which is why it carries
// JSON tags.
type Diag struct {
	Cycle    uint64    `json:"cycle"`  // cycle at which the bundle was captured
	Window   uint64    `json:"window"` // cycles without observed progress (0 = on-demand, not a hang)
	Sections []Section `json:"sections"`
}

// Add appends a section, dropping empty ones so bundles stay readable.
func (d *Diag) Add(title string, lines []string) {
	if len(lines) == 0 {
		return
	}
	d.Sections = append(d.Sections, Section{Title: title, Lines: lines})
}

// String renders the bundle as an indented text report.
func (d *Diag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "no forward progress for %d cycles (stuck at cycle %d)\n", d.Window, d.Cycle)
	for _, s := range d.Sections {
		fmt.Fprintf(&b, "  %s:\n", s.Title)
		for _, ln := range s.Lines {
			fmt.Fprintf(&b, "    %s\n", ln)
		}
	}
	return b.String()
}

// NoProgressError is returned by run loops when the watchdog trips.
// It carries the bundle; errors.As finds it through the loop's wrapping.
type NoProgressError struct {
	Diag Diag
}

func (e *NoProgressError) Error() string {
	return strings.TrimRight(e.Diag.String(), "\n")
}

// Watchdog tracks a monotone progress signature between samples. The
// zero value with window 0 is disabled; Check on a disabled watchdog is
// a single branch.
type Watchdog struct {
	window     uint64
	lastSig    uint64
	lastChange uint64
}

// NewWatchdog returns a watchdog that declares a hang after window
// cycles without signature change (clamped to MinWatchdogWindow).
// window 0 disables it.
func NewWatchdog(window uint64) Watchdog {
	return Watchdog{window: ClampWindow(window)}
}

// Check records the signature observed at the given cycle and reports
// whether the no-progress window has elapsed. The signature must be
// monotone non-decreasing while the machine makes progress; any change
// (the sum is over monotone counters, so change means increase) resets
// the window.
func (w *Watchdog) Check(cycle, sig uint64) (stalled bool, window uint64) {
	if w.window == 0 {
		return false, 0
	}
	if sig != w.lastSig {
		w.lastSig = sig
		w.lastChange = cycle
		return false, 0
	}
	if cycle-w.lastChange >= w.window {
		return true, cycle - w.lastChange
	}
	return false, 0
}
