package soc

import (
	"context"
	"fmt"

	"emerald/internal/cpu"
	"emerald/internal/dram"
	"emerald/internal/emtrace"
	"emerald/internal/geom"
	"emerald/internal/gfx"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/guard"
	"emerald/internal/interconnect"
	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/sched"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// Config describes the full SoC (paper Table 5 + workload knobs).
type Config struct {
	NumCPUs      int
	CPUClockMult int // CPU cycles per system cycle (2 GHz vs 1 GHz)

	GPU  gpu.Config
	DRAM dram.Config
	// DASH, when the DRAM config uses the DASH scheduler, receives frame
	// registration and progress feedback.
	DASH *sched.DASH

	// Scaled frame periods in system cycles (see package comment).
	DisplayPeriod uint64
	AppPeriod     uint64 // app/GPU frame period (2x display = 30 FPS)

	Width, Height int

	Scene *geom.Scene

	// App workload knobs.
	WorkingSetBytes uint32
	ScenePasses     uint32
	CmdBufBytes     uint32
	// Background memory intensity per non-app core: ALU iterations per
	// memory access (0 = idle core). Length NumCPUs-1.
	Background []uint32

	// Frames to simulate (plus WarmupFrames discarded from stats).
	Frames       int
	WarmupFrames int
}

// DefaultConfig builds the Case Study I system (Table 5) around a scene,
// with scaled frame periods.
func DefaultConfig(scene *geom.Scene) Config {
	return Config{
		NumCPUs:      4,
		CPUClockMult: 2,
		GPU:          gpu.CaseStudyIConfig(),
		DRAM: sched.BaselineDRAM("dram", dram.LPDDR3Geometry(2),
			dram.LPDDR3Timing(1333)),
		DisplayPeriod:   150_000,
		AppPeriod:       300_000,
		Width:           192,
		Height:          144,
		Scene:           scene,
		WorkingSetBytes: 96 * 1024,
		ScenePasses:     1,
		CmdBufBytes:     2048,
		Background:      []uint32{4, 48, 0},
		Frames:          4,
		WarmupFrames:    1,
	}
}

// backgroundWSBytes is each background task's working set; sized above
// the scaled L2 so background cores keep pressure on DRAM throughout the
// frame (the multiprogrammed Android processes of the paper's workload).
const backgroundWSBytes = 512 * 1024

// scaledCPUConfig shrinks the Table 5 cache hierarchy in proportion to
// the SoC's scaled frame periods and working sets (8 KB L1s, 64 KB L2),
// preserving the paper's cache-to-working-set ratios, so the
// DRAM-contention regime matches the paper's. Every core is built with it.
func scaledCPUConfig(id int) cpu.Config {
	c := cpu.DefaultConfig(id)
	c.L1I.SizeBytes = 8 * 1024
	c.L1D.SizeBytes = 8 * 1024
	c.L2.SizeBytes = 64 * 1024
	return c
}

// FrameStats records one app frame's timing.
type FrameStats struct {
	SubmitCycle uint64
	GPUCycles   uint64 // submission to fence
	TotalCycles uint64 // submit-to-next-submit
}

// SoC is the assembled full system.
type SoC struct {
	Cfg Config

	CPUs    []*cpu.Core
	GPU     *gpu.GPU
	GL      *gl.Context
	Display *Display
	DRAM    *dram.Controller

	noc *interconnect.Crossbar

	// Frame lifecycle.
	colorA, colorB gfx.Surface
	depth          gfx.Surface
	backIsA        bool
	frameIndex     int
	fenceID        uint32
	fenceBusy      bool
	submitCycle    uint64
	framesDone     int
	Frames         []FrameStats

	mesh gl.MeshHandle

	cycle            uint64
	nextDashFeedback uint64
	// dashFeedbackEvery is the DASH progress-feedback cadence, derived
	// from the scheduler's configured scheduling unit (Table 3) so
	// parameter sweeps actually change it.
	dashFeedbackEvery uint64

	// trace, when armed via AttachTracer, receives frame submit/complete
	// spans and blocking-syscall spans; per-CPU state below tracks a
	// pending (blocked, retried-each-tick) syscall's start cycle.
	trace     *emtrace.Tracer
	sysStart  []uint64
	sysCode   []int32
	cpuTracks []string

	// The loop advances the clock over the parts New lists, and holds
	// what its stride poll reads.
	par.Loop
}

// noSysStart marks "no blocked syscall pending" in SoC.sysStart.
const noSysStart = ^uint64(0)

// New assembles the SoC.
func New(cfg Config, reg *stats.Registry) (*SoC, error) {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.Scene == nil {
		return nil, fmt.Errorf("soc: config needs a scene")
	}
	if cfg.NumCPUs < 1 {
		return nil, fmt.Errorf("soc: need at least one CPU")
	}
	memory := mem.NewMemory()
	s := &SoC{Cfg: cfg, backIsA: true}

	s.GPU = gpu.New(cfg.GPU, memory, reg)
	s.DRAM = dram.NewController(cfg.DRAM, reg)
	s.Display = NewDisplay(cfg.DisplayPeriod, reg)

	// Ports: CPUs, GPU, display.
	s.noc = interconnect.Connect(interconnect.Config{
		Name: "sys_noc", Ports: cfg.NumCPUs + 2, Latency: 10, Width: 4, Depth: 64,
	}, s.DRAM, reg)

	// Surfaces (double-buffered color + depth) at fixed addresses.
	fbBytes := uint64(cfg.Width * cfg.Height * 4)
	s.colorA = gfx.Surface{Base: 0x8000_0000, Width: cfg.Width, Height: cfg.Height}
	s.colorB = gfx.Surface{Base: 0x8000_0000 + fbBytes, Width: cfg.Width, Height: cfg.Height}
	s.depth = gfx.Surface{Base: 0x8000_0000 + 2*fbBytes, Width: cfg.Width, Height: cfg.Height}
	s.Display.SetFrontBuffer(s.colorB)

	// GL context over its own heap, submitting into the GPU.
	s.GL = gl.NewContext(memory, gl.HeapBase, gl.HeapSize)
	s.GL.Submit = func(call *gpu.DrawCall) error { return s.GPU.SubmitDraw(call, nil) }
	s.GL.OnClearDepth = s.GPU.ClearHiZ

	// Upload scene assets once (app start).
	var err error
	if s.mesh, err = s.GL.LoadScene(cfg.Scene); err != nil {
		return nil, err
	}

	// CPU cores.
	for i := 0; i < cfg.NumCPUs; i++ {
		var prog *cpu.Program
		if i == 0 {
			prog = cpu.AppFrameLoop
		} else {
			bi := i - 1
			if bi < len(cfg.Background) && cfg.Background[bi] > 0 {
				prog = cpu.BackgroundTask
			} else {
				prog = cpu.IdleTask
			}
		}
		core := cpu.NewCore(scaledCPUConfig(i), prog, memory, reg)
		core.Sys = s.syscall
		// Workload parameters.
		core.Regs[10] = 0x6000_0000 + uint32(i)<<24 // working set base
		if i == 0 {
			core.Regs[11] = cfg.WorkingSetBytes
			core.Regs[12] = 0x7000_0000
			core.Regs[13] = cfg.CmdBufBytes
			core.Regs[14] = cfg.ScenePasses
		} else if bi := i - 1; bi < len(cfg.Background) && cfg.Background[bi] > 0 {
			core.Regs[11] = backgroundWSBytes
			core.Regs[12] = cfg.Background[bi]
			core.Regs[13] = 128 // stride: two lines, low row locality
		}
		s.CPUs = append(s.CPUs, core)
	}

	// Register IPs with DASH (Table 3: display 16 ms, GPU 33 ms).
	if cfg.DASH != nil {
		cfg.DASH.RegisterIP(mem.ClientDisplay, 0, cfg.DisplayPeriod)
		cfg.DASH.RegisterIP(mem.ClientGPU, 0, cfg.AppPeriod)
		cfg.DASH.StartFrame(mem.ClientDisplay, 0, 0)
		cfg.DASH.StartFrame(mem.ClientGPU, 0, 0)
		s.dashFeedbackEvery = cfg.DASH.SchedulingUnit()
		if s.dashFeedbackEvery == 0 {
			s.dashFeedbackEvery = 1000
		}
	}

	// The loop's parts, in tick order: the CPU cores at their clock
	// multiple, the display, the memory side (GPU, system NoC, DRAM),
	// then fence resolution and DASH feedback.
	var parts []par.Part
	for i, c := range s.CPUs {
		parts = append(parts, c.Part(uint64(cfg.CPUClockMult), s.noc.Port(i)))
	}
	display := s.noc.Port(cfg.NumCPUs + 1)
	parts = append(parts, par.Part{Tick: func(c uint64) {
		s.Display.Tick(c)
		s.Display.Out.DrainTo(display)
	}, NextWake: s.Display.NextWake})
	parts = append(parts, gpu.MemorySide(s.GPU, s.noc, cfg.NumCPUs, s.DRAM)...)
	parts = append(parts, par.Part{Tick: s.resolve, NextWake: s.resolveWake})
	s.Loop = par.NewLoop(&s.cycle, parts, par.Hooks{
		Done:     func() bool { return s.framesDone >= s.Cfg.Frames+s.Cfg.WarmupFrames },
		Diagnose: s.diagnose, Sample: s.telemetrySample,
	})
	return s, nil
}

// AttachTracer arms event tracing across the whole system: GPU (and its
// cores/caches), DRAM, display, CPU cache hierarchies, and the SoC's own
// frame/syscall spans. Frame completions drive the tracer's FrameMark
// region-of-interest.
func (s *SoC) AttachTracer(t *emtrace.Tracer) {
	s.trace = t
	s.GPU.AttachTracer(t)
	s.DRAM.AttachTracer(t)
	s.Display.AttachTracer(t)
	s.sysStart = make([]uint64, len(s.CPUs))
	s.sysCode = make([]int32, len(s.CPUs))
	s.cpuTracks = make([]string, len(s.CPUs))
	for i, c := range s.CPUs {
		c.AttachTracer(t)
		s.sysStart[i] = noSysStart
		s.cpuTracks[i] = fmt.Sprintf("cpu%d", i)
	}
}

// AttachGuard arms invariant checking across the whole system: the
// GPU (L2, cluster NoC, SIMT cores and their L1s), the system NoC,
// DRAM, and every CPU core's cache hierarchy. Probes run at the end of
// every cycle, once every part has ticked.
func (s *SoC) AttachGuard(g *guard.Checker) {
	s.GPU.AttachGuard(g)
	s.noc.AttachGuard(g)
	s.DRAM.AttachGuard(g)
	for _, c := range s.CPUs {
		c.AttachGuard(g)
	}
	g.Register("soc", "display.requests", s.Display.checkRequests)
	s.Loop.AttachGuard(g)
}

// backBuffer returns the current render target.
func (s *SoC) backBuffer() gfx.Surface {
	if s.backIsA {
		return s.colorA
	}
	return s.colorB
}

// syscall implements the driver layer (goldfish-pipe substitute),
// wrapping the handler with blocking-syscall span tracing.
func (s *SoC) syscall(c *cpu.Core, code int32) (uint32, bool) {
	v, done := s.syscallImpl(c, code)
	if s.trace != nil {
		s.traceSyscall(c, code, done)
	}
	return v, done
}

// traceSyscall emits a span for each syscall that blocked at least one
// cycle (one that completes at once, like a fence poll, produces no
// event).
func (s *SoC) traceSyscall(c *cpu.Core, code int32, done bool) {
	id := c.Cfg.ID
	if id < 0 || id >= len(s.sysStart) {
		return
	}
	if !done {
		if s.sysStart[id] == noSysStart {
			s.sysStart[id] = s.cycle
			s.sysCode[id] = code
		}
		return
	}
	if s.sysStart[id] != noSysStart && s.sysCode[id] == code {
		s.trace.Span(emtrace.SrcSoC, s.cpuTracks[id], syscallName(code),
			s.sysStart[id], s.cycle)
	}
	s.sysStart[id] = noSysStart
}

func syscallName(code int32) string {
	switch code {
	case cpu.SysFrameSubmit:
		return "sys_frame_submit"
	case cpu.SysFenceDone:
		return "sys_fence_done"
	case cpu.SysWaitVsync:
		return "sys_wait_vsync"
	}
	return "sys_unknown"
}

func (s *SoC) syscallImpl(c *cpu.Core, code int32) (uint32, bool) {
	switch code {
	case cpu.SysFrameSubmit:
		if s.fenceBusy {
			return 0, false // previous frame still rendering
		}
		s.submitFrame()
		return s.fenceID, true

	case cpu.SysFenceDone:
		if uint32(c.Regs[2]) != s.fenceID {
			return 1, true // stale fence: long signaled
		}
		if s.fenceBusy {
			return 0, true // still rendering; poll again
		}
		return 1, true

	case cpu.SysWaitVsync:
		// Block until the next app-frame boundary. The core is parked
		// until the system cycle just before the boundary (in its own
		// clock domain), where this handler retries and completes — no
		// per-cycle spinning in between.
		next := (s.cycle/s.Cfg.AppPeriod + 1) * s.Cfg.AppPeriod
		if s.cycle < next-1 {
			c.SleepUntil((next - 1) * uint64(s.Cfg.CPUClockMult))
			return 0, false
		}
		return 0, true
	}
	return 0, true
}

// submitFrame issues the frame's GL commands and arms the fence.
func (s *SoC) submitFrame() {
	aspect := float32(s.Cfg.Width) / float32(s.Cfg.Height)
	s.GL.BindSurfaces(s.backBuffer(), s.depth)
	s.GL.Clear(0xFF101010, true)
	s.GL.SetMVP(s.Cfg.Scene.MVP(s.frameIndex, aspect))
	if err := s.GL.DrawMesh(s.mesh); err != nil {
		panic(fmt.Sprintf("soc: draw failed: %v", err))
	}
	s.frameIndex++
	s.fenceID++
	s.fenceBusy = true
	// The previous frame's full span is submit-to-submit.
	if n := len(s.Frames); n > 0 {
		s.Frames[n-1].TotalCycles = s.cycle - s.Frames[n-1].SubmitCycle
	}
	s.submitCycle = s.cycle
	s.trace.Instant1(emtrace.SrcSoC, "frames", "frame_submit", s.cycle,
		emtrace.Arg{Key: "fence", Val: int64(s.fenceID)})
	if s.Cfg.DASH != nil {
		s.Cfg.DASH.StartFrame(mem.ClientGPU, 0, s.cycle)
	}
}

// completeFrame retires the fence and flips buffers.
func (s *SoC) completeFrame() {
	s.fenceBusy = false
	// Flip: the just-rendered buffer becomes the display front buffer.
	front := s.backBuffer()
	s.backIsA = !s.backIsA
	s.Display.SetFrontBuffer(front)

	st := FrameStats{
		SubmitCycle: s.submitCycle,
		GPUCycles:   s.cycle - s.submitCycle,
		// Provisional: submit-to-complete. The next frame's submission
		// back-fills the real submit-to-submit span; for the run's final
		// frame (which has no successor) this stands, so every completed
		// frame reports a nonzero TotalCycles.
		TotalCycles: s.cycle - s.submitCycle,
	}
	s.Frames = append(s.Frames, st)
	s.framesDone++
	s.trace.Span1(emtrace.SrcSoC, "frames", "frame", s.submitCycle, s.cycle,
		emtrace.Arg{Key: "frame", Val: int64(s.framesDone)})
	s.trace.FrameMark()
}

// Cycle returns the current system cycle.
func (s *SoC) Cycle() uint64 { return s.cycle }

// resolve is the loop's last part: it retires the fence of a frame the
// GPU has finished, and feeds DASH the GPU's and the display's progress
// once per scheduling unit.
func (s *SoC) resolve(c uint64) {
	if s.fenceBusy && !s.GPU.Busy() {
		s.completeFrame()
	}
	if s.Cfg.DASH != nil && c >= s.nextDashFeedback {
		s.nextDashFeedback = c + s.dashFeedbackEvery
		if s.fenceBusy {
			s.Cfg.DASH.ReportProgress(mem.ClientGPU, 0, s.GPU.DrawProgress())
		} else {
			s.Cfg.DASH.ReportProgress(mem.ClientGPU, 0, 1)
		}
		s.Cfg.DASH.StartFrame(mem.ClientDisplay, 0, s.Display.FrameStart())
		s.Cfg.DASH.ReportProgress(mem.ClientDisplay, 0, s.Display.Progress())
	}
}

// resolveWake is resolve's wake: now while a frame's fence waits on a
// GPU that has finished, else the next DASH feedback.
func (s *SoC) resolveWake(c uint64) uint64 {
	if s.fenceBusy && !s.GPU.Busy() {
		return c
	}
	if s.Cfg.DASH != nil {
		return s.nextDashFeedback
	}
	return mem.NeverWake
}

// Run simulates until Frames+WarmupFrames app frames have completed (or
// the budget expires), returning an error on timeout.
func (s *SoC) Run(budget uint64) error {
	return s.RunCtx(context.Background(), budget)
}

// RunCtx is Run with cancellation and self-diagnosis (see
// par.Run).
func (s *SoC) RunCtx(ctx context.Context, budget uint64) error {
	err := par.Run(ctx, &s.Loop, budget)
	s.syncCPUs()
	if err != nil {
		return fmt.Errorf("soc: %d/%d frames: %w", s.framesDone, s.Cfg.Frames+s.Cfg.WarmupFrames, err)
	}
	return nil
}

// syncCPUs commits what the CPU cores' planned runs issue before the
// current cycle (cpu.Core.Sync), so a reader between ticks or after a
// run sees the state an every-cycle run has there.
func (s *SoC) syncCPUs() {
	end := s.cycle * uint64(s.Cfg.CPUClockMult)
	for _, c := range s.CPUs {
		c.Sync(end)
	}
}

// diagnose builds the diagnostic bundle — per-CPU state, GPU front end
// and per-core warp detail, NoC credits, DRAM queue occupancy and the
// emtrace tail when tracing is armed — for a watchdog abort (window >
// 0) or an on-demand telemetry snapshot of a healthy run (window 0).
func (s *SoC) diagnose(window uint64) guard.Diag {
	s.syncCPUs()
	d := guard.Diag{Cycle: s.cycle, Window: window}
	cpuLines := make([]string, 0, len(s.CPUs)+1)
	cpuLines = append(cpuLines, fmt.Sprintf("frames=%d/%d fenceBusy=%v",
		s.framesDone, s.Cfg.Frames+s.Cfg.WarmupFrames, s.fenceBusy))
	for _, c := range s.CPUs {
		cpuLines = append(cpuLines, c.Diagnose(s.cycle))
	}
	d.Add("soc", cpuLines)
	s.GPU.Diagnose(&d, s.cycle)
	d.Add("sys_noc", s.noc.Diagnose(s.cycle))
	d.Add("dram", s.DRAM.Diagnose(s.cycle))
	d.Add("emtrace tail", s.trace.TailLines(16))
	return d
}

// telemetrySample snapshots the monotone progress counters: CPU and
// GPU instructions, DRAM bytes, display service and completed frames,
// kept per component so observers can see which engine is moving. The
// watchdog reads their fold, Components.WorkSig.
func (s *SoC) telemetrySample() telemetry.Sample {
	s.syncCPUs()
	var cpu int64
	for _, c := range s.CPUs {
		cpu += c.Instructions()
	}
	return telemetry.Sample{
		Cycle:         s.cycle,
		FramesDone:    s.framesDone,
		FramesTarget:  s.Cfg.Frames + s.Cfg.WarmupFrames,
		SkippedCycles: s.SkippedCycles(),
		Components: telemetry.Components{
			CPUInstructions: cpu,
			GPUWork:         int64(s.GPU.Progress()),
			DRAMBytes:       s.DRAM.TotalBytes(),
			DisplayLines:    s.Display.Served(),
			FramesRetired:   int64(s.framesDone),
		},
	}
}

// Results summarizes the run for the Case Study I figures, skipping
// warmup frames.
type Results struct {
	Config          string
	Model           string
	MeanGPUCycles   float64
	MeanFrameCycles float64
	DisplayServed   int64
	FramesShown     int64
	FramesDropped   int64
	RowHitRate      float64
	BytesPerAct     float64
}

// Results computes the run summary.
func (s *SoC) Results(configName string) Results {
	r := Results{
		Config:        configName,
		Model:         s.Cfg.Scene.Name,
		DisplayServed: s.Display.Served(),
		FramesShown:   s.Display.FramesShown(),
		FramesDropped: s.Display.FramesDropped(),
		RowHitRate:    s.DRAM.RowHitRate(),
		BytesPerAct:   s.DRAM.BytesPerActivation(),
	}
	var gpuSum, frameSum, nGPU, nFrame float64
	for i, f := range s.Frames {
		if i < s.Cfg.WarmupFrames {
			continue
		}
		gpuSum += float64(f.GPUCycles)
		nGPU++
		if f.TotalCycles > 0 {
			frameSum += float64(f.TotalCycles)
			nFrame++
		}
	}
	if nGPU > 0 {
		r.MeanGPUCycles = gpuSum / nGPU
	}
	if nFrame > 0 {
		r.MeanFrameCycles = frameSum / nFrame
	}
	return r
}
