package gpu

import (
	"context"
	"fmt"

	"emerald/internal/dram"
	"emerald/internal/emtrace"
	"emerald/internal/guard"
	"emerald/internal/interconnect"
	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// Standalone wires a GPU directly to a DRAM controller — the paper's
// standalone mode (Figure 8a), used by Case Study II and the quickstart
// examples.
type Standalone struct {
	GPU  *GPU
	DRAM *dram.Controller
	Reg  *stats.Registry

	sysNoC *interconnect.Crossbar
	cycle  uint64

	// run advances the clock and holds what its stride poll reads: the
	// guard (whose probes also run at the end of every Tick; nil costs
	// one branch), the watchdog window and the telemetry probe.
	run par.Loop

	// trace is kept for the watchdog bundle's emtrace tail.
	trace *emtrace.Tracer
}

// NewStandalone builds the standalone-mode system. dramCfg may omit
// Name. reg may be nil.
func NewStandalone(gpuCfg Config, dramCfg dram.Config, reg *stats.Registry) *Standalone {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	memory := mem.NewMemory()
	g := New(gpuCfg, memory, reg)
	if dramCfg.Name == "" {
		dramCfg.Name = "dram"
	}
	d := dram.NewController(dramCfg, reg)
	s := &Standalone{GPU: g, DRAM: d, Reg: reg}
	s.sysNoC = interconnect.New(interconnect.Config{
		Name: "sys_noc", Ports: 1, Latency: 8, Width: 4, Depth: 64,
	}, d.Push, reg)
	s.run = par.Loop{
		Cycle: &s.cycle, Skip: true,
		Tick: s.Tick, NextWake: s.NextWake,
		Done:     func() bool { return !s.Busy() },
		Progress: s.progressSig, Diagnose: s.diagnose, Sample: s.telemetrySample,
	}
	return s
}

// DefaultStandalone builds the Case Study II configuration: the Table 7
// GPU over 4-channel LPDDR3-1600.
func DefaultStandalone(reg *stats.Registry) *Standalone {
	return NewStandalone(
		CaseStudyIIConfig(),
		dram.Config{
			Geometry: dram.LPDDR3Geometry(4),
			Timing:   dram.LPDDR3Timing(1600),
		}, reg)
}

// AttachTracer arms event tracing across the GPU and DRAM.
func (s *Standalone) AttachTracer(t *emtrace.Tracer) {
	s.trace = t
	s.GPU.AttachTracer(t)
	s.DRAM.AttachTracer(t)
}

// AttachGuard arms invariant checking across GPU, system NoC and DRAM.
// Probes run at the end of every Tick — the quiesce point where no
// tick-engine shard is mutating state — so checking stays race-clean
// under -workers.
func (s *Standalone) AttachGuard(g *guard.Checker) {
	s.run.Guard = g
	s.GPU.AttachGuard(g)
	s.sysNoC.AttachGuard(g)
	s.DRAM.AttachGuard(g)
}

// SetWatchdog arms the forward-progress watchdog: RunUntilIdleCtx
// aborts with a guard.NoProgressError when no instruction issues, no
// fragment shades, no draw retires and no DRAM byte moves for window
// cycles (clamped to guard.MinWatchdogWindow; 0 disables).
func (s *Standalone) SetWatchdog(window uint64) { s.run.Watchdog = guard.ClampWindow(window) }

// SetParallel arms the deterministic parallel tick engine on the GPU
// clusters and DRAM channels; nil restores the sequential paths.
func (s *Standalone) SetParallel(p *par.Pool) {
	s.GPU.SetParallel(p)
	s.DRAM.SetParallel(p)
}

// SetIdleSkip enables or disables event-driven idle cycle-skipping in
// RunUntilIdleCtx. Results are bit-identical either way: skipping only
// jumps over cycles whose component ticks are gated no-ops, and jumps
// are clamped to the watchdog/context poll stride.
func (s *Standalone) SetIdleSkip(on bool) { s.run.Skip = on }

// SetEventWheel toggles component parking, which in standalone mode is
// the drained GPU alone (it stops ticking while DRAM finishes its
// writebacks); the name is the SoC's, whose wheel parks CPU cores and
// the display as well. Results are bit-identical either way.
func (s *Standalone) SetEventWheel(on bool) { s.GPU.SetParkDrained(on) }

// SetProbe attaches a telemetry probe: RunUntilIdleCtx publishes a
// progress snapshot to it at every stride poll and serves its
// on-demand diagnostic requests. nil detaches. The probe reads
// monotone counters only, so results are bit-identical with or without
// one attached.
func (s *Standalone) SetProbe(p *telemetry.Probe) { s.run.Probe = p }

// SkippedCycles returns the number of cycles fast-forwarded over by
// idle skipping since construction.
func (s *Standalone) SkippedCycles() uint64 { return s.run.Skipped }

// NextWake returns the earliest future cycle at which any component's
// state can change on its own (mem.NeverWake when fully quiescent).
func (s *Standalone) NextWake() uint64 {
	c := s.cycle
	w := s.GPU.NextWake(c)
	if w <= c {
		return c
	}
	if v := s.sysNoC.NextWake(c); v < w {
		w = v
	}
	if v := s.DRAM.NextWake(c); v < w {
		w = v
	}
	if w <= c {
		return c
	}
	return w
}

// Mem exposes the functional memory for asset upload.
func (s *Standalone) Mem() *mem.Memory { return s.GPU.Mem }

// ResumeAt adopts a checkpoint's cycle count, so a simulation resumed
// from a snapshot reports cycles on the original run's timeline. Only
// legal while idle — nothing in flight carries stamps from the old
// clock.
func (s *Standalone) ResumeAt(cycle uint64) error {
	if s.Busy() {
		return fmt.Errorf("gpu: cannot adopt checkpoint cycle %d while busy", cycle)
	}
	s.cycle = cycle
	return nil
}

// Cycle returns the current simulation cycle.
func (s *Standalone) Cycle() uint64 { return s.cycle }

// Tick advances GPU, system NoC and DRAM by one cycle.
func (s *Standalone) Tick() {
	c := s.cycle
	s.GPU.Tick(c)
	s.GPU.Out.DrainTo(s.sysNoC.Port(0))
	s.sysNoC.Tick(c)
	s.DRAM.Tick(c)
	s.run.Guard.Tick(c)
	s.cycle++
}

// Busy reports outstanding work anywhere in the system.
func (s *Standalone) Busy() bool {
	return s.GPU.Busy() || s.GPU.Out.Len() > 0 || s.sysNoC.Busy() || !s.DRAM.Drained()
}

// RunUntilIdle ticks until quiescent, returning elapsed cycles.
func (s *Standalone) RunUntilIdle(budget uint64) (uint64, error) {
	return s.RunUntilIdleCtx(context.Background(), budget)
}

// RunUntilIdleCtx is RunUntilIdle with cancellation and self-diagnosis
// (see par.Loop.Run).
func (s *Standalone) RunUntilIdleCtx(ctx context.Context, budget uint64) (uint64, error) {
	start := s.cycle
	if err := s.run.Run(ctx, budget); err != nil {
		return s.cycle - start, fmt.Errorf("gpu: standalone system: %w", err)
	}
	return s.cycle - start, nil
}

// progressSig sums the system's monotone progress counters; flat
// across a watchdog window means nothing anywhere is advancing.
func (s *Standalone) progressSig() uint64 {
	return s.GPU.Progress() + uint64(s.DRAM.TotalBytes())
}

// diagnose builds the diagnostic bundle for a watchdog abort (window >
// 0) or an on-demand telemetry snapshot of a healthy run (window 0).
func (s *Standalone) diagnose(window uint64) guard.Diag {
	d := guard.Diag{Cycle: s.cycle, Window: window}
	s.GPU.Diagnose(&d, s.cycle)
	d.Add("sys_noc", s.sysNoC.Diagnose(s.cycle))
	d.Add("dram", s.DRAM.Diagnose(s.cycle))
	d.Add("emtrace tail", s.trace.TailLines(16))
	return d
}

// telemetrySample snapshots the monotone progress counters for the
// probe. Standalone runs have no frame target (they run until idle),
// so FramesTarget stays 0 and FramesDone counts retired draws.
func (s *Standalone) telemetrySample() telemetry.Sample {
	draws := s.GPU.DrawsDone()
	return telemetry.Sample{
		Cycle:         s.cycle,
		FramesDone:    int(draws),
		SkippedCycles: s.run.Skipped,
		Components: telemetry.Components{
			GPUWork:       int64(s.GPU.Progress()),
			DRAMBytes:     s.DRAM.TotalBytes(),
			FramesRetired: draws,
		},
	}
}

// RenderDraw submits one draw call and runs it to completion, returning
// the cycles from submission to retirement of all its work.
func (s *Standalone) RenderDraw(call *DrawCall, budget uint64) (uint64, error) {
	if err := s.GPU.SubmitDraw(call, nil); err != nil {
		return 0, err
	}
	return s.RunUntilIdle(budget)
}

// RunKernel launches one compute kernel to completion.
func (s *Standalone) RunKernel(k Kernel, budget uint64) (uint64, error) {
	if err := s.GPU.LaunchKernel(k, nil); err != nil {
		return 0, err
	}
	return s.RunUntilIdle(budget)
}
