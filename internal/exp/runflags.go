package exp

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"emerald/internal/emtrace"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// RunFlags is the run-control flag set emerald, memstudy and dfsl
// share: how a run is executed (-workers, -every-cycle), checked
// (-watchdog, -guard) and observed (-progress, -trace-events,
// -trace-start, -trace-frames, -stats-json).
type RunFlags struct {
	tool string

	workers     int
	watchdog    uint64
	guard       bool
	everyCycle  bool
	progress    bool
	traceFile   string
	traceStart  uint64
	traceFrames int
	statsJSON   string

	trace      *emtrace.Tracer
	stats      *stats.Registry
	stopTicker func()
}

// AddRunFlags registers the shared run flags on fs. tool prefixes the
// -progress lines.
func AddRunFlags(fs *flag.FlagSet, tool string) *RunFlags {
	f := &RunFlags{tool: tool}
	fs.IntVar(&f.workers, "workers", runtime.NumCPU(), "simulations run at once, one per figure cell (1 = one at a time; results are identical)")
	fs.Uint64Var(&f.watchdog, "watchdog", 0, "abort after this many cycles without forward progress, with a diagnostic dump (0 = off)")
	fs.BoolVar(&f.guard, "guard", false, "run cycle-level microarchitectural invariant checks (MSHR leaks, SIMT stack balance, DRAM/NoC legality)")
	fs.BoolVar(&f.everyCycle, "every-cycle", false, "reference mode: tick every component on every cycle, with no clock jumps and no parked components (results are identical; the digest oracle, and for debugging)")
	fs.BoolVar(&f.progress, "progress", false, "print a live progress line to stderr every second (cycle, frames or draws, sim rate, skip ratio)")
	fs.StringVar(&f.traceFile, "trace-events", "", "write a Chrome/Perfetto trace-event JSON file covering every run")
	fs.Uint64Var(&f.traceStart, "trace-start", 0, "drop trace events before this cycle")
	fs.IntVar(&f.traceFrames, "trace-frames", 0, "stop tracing after this many frames (0 = all)")
	fs.StringVar(&f.statsJSON, "stats-json", "", "write all counters and distributions as JSON to this file")
	return f
}

// Apply turns the parsed flags into opt's harness half, starting what
// they ask for: the tracer, the stats registry and the progress ticker.
// Finish releases them. A -workers below 1 is a usage error.
func (f *RunFlags) Apply(opt *Options) error {
	if f.workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", f.workers)
	}
	opt.Workers = f.workers
	opt.WatchdogCycles = f.watchdog
	opt.Guard = f.guard
	opt.EveryCycle = f.everyCycle
	if f.traceFile != "" {
		f.trace = emtrace.New(0)
		f.trace.SetStart(f.traceStart)
		f.trace.SetFrameLimit(f.traceFrames)
		opt.Trace = f.trace
	}
	if f.statsJSON != "" {
		f.stats = stats.NewRegistry()
		opt.Stats = f.stats
	}
	if f.progress {
		opt.Probe = telemetry.NewProbe()
		f.stopTicker = telemetry.StartTicker(os.Stderr, opt.Probe, f.tool+": ", time.Second)
	}
	return nil
}

// Finish ends what Apply started: it stops the ticker and writes the
// trace and stats files, reporting each on w.
func (f *RunFlags) Finish(w io.Writer) error {
	if f.stopTicker != nil {
		f.stopTicker()
	}
	if f.trace != nil {
		if err := writeFile(f.traceFile, f.trace.WriteChromeJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d events, %d dropped)\n", f.traceFile, f.trace.Len(), f.trace.Dropped())
	}
	if f.stats != nil {
		if err := writeFile(f.statsJSON, f.stats.DumpJSON); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", f.statsJSON)
	}
	return nil
}

// writeFile creates path and fills it from write.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
