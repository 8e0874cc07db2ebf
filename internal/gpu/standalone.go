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

	// The loop advances the clock over the memory side (MemorySide)
	// and holds what its stride poll reads.
	par.Loop

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
	s.sysNoC = interconnect.Connect(interconnect.Config{
		Name: "sys_noc", Ports: 1, Latency: 8, Width: 4, Depth: 64,
	}, d, reg)
	s.Loop = par.NewLoop(&s.cycle, MemorySide(g, s.sysNoC, 0, d), par.Hooks{
		Done:     func() bool { return !s.Busy() },
		Progress: s.progressSig, Diagnose: s.diagnose, Sample: s.telemetrySample,
	})
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

// MemorySide is the GPU and what serves it, as a par.Loop drives
// them: the GPU, its output port drained into port of the system NoC,
// then the system NoC and DRAM as one part. The NoC and DRAM each gate
// their own Tick on their state, as cheaply as their wakes would, so
// that part is self-gated. Both systems build theirs here.
func MemorySide(g *GPU, noc *interconnect.Crossbar, port int, d *dram.Controller) []par.Part {
	out := noc.Port(port)
	return []par.Part{
		{Tick: func(c uint64) {
			g.Tick(c)
			g.Out.DrainTo(out)
		}, NextWake: g.NextWake, Charge: g.ChargeSkipped},
		{Tick: func(c uint64) {
			noc.Tick(c)
			d.Tick(c)
		}, NextWake: func(c uint64) uint64 {
			w := noc.NextWake(c)
			if w > c {
				w = min(w, d.NextWake(c))
			}
			return w
		}, Charge: func(_, n uint64) { noc.Charge(n) }, SelfGated: true},
	}
}

// AttachGuard arms invariant checking across GPU, system NoC and DRAM.
// Probes run at the end of every cycle, once every part has ticked.
func (s *Standalone) AttachGuard(g *guard.Checker) {
	s.GPU.AttachGuard(g)
	s.sysNoC.AttachGuard(g)
	s.DRAM.AttachGuard(g)
	s.Loop.AttachGuard(g)
}

// SetParallel does nothing: a system ticks on one goroutine, and
// independent runs are what execute concurrently (DESIGN.md
// "Parallelism"). It stays only because the benchmark's par arm still
// calls it.
func (s *Standalone) SetParallel(*par.Pool) {}

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

// Busy reports outstanding work anywhere in the system.
func (s *Standalone) Busy() bool {
	return s.GPU.Busy() || s.GPU.Out.Len() > 0 || s.sysNoC.Busy() || !s.DRAM.Drained()
}

// RunUntilIdle ticks until quiescent, returning elapsed cycles.
func (s *Standalone) RunUntilIdle(budget uint64) (uint64, error) {
	return s.RunUntilIdleCtx(context.Background(), budget)
}

// RunUntilIdleCtx is RunUntilIdle with cancellation and self-diagnosis
// (see par.Run).
func (s *Standalone) RunUntilIdleCtx(ctx context.Context, budget uint64) (uint64, error) {
	start := s.cycle
	if err := par.Run(ctx, &s.Loop, budget); err != nil {
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
		SkippedCycles: s.SkippedCycles(),
		Components: telemetry.Components{
			GPUWork:       int64(s.GPU.Progress()),
			DRAMBytes:     s.DRAM.TotalBytes(),
			FramesRetired: draws,
		},
	}
}

// RunKernel launches one compute kernel to completion.
func (s *Standalone) RunKernel(k Kernel, budget uint64) (uint64, error) {
	if err := s.GPU.LaunchKernel(k, nil); err != nil {
		return 0, err
	}
	return s.RunUntilIdle(budget)
}
