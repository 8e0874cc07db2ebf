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
	"emerald/internal/trace"
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

	// CPUConfig builds each core's configuration (defaults to
	// ScaledCPUConfig, whose cache sizes are shrunk in proportion to the
	// scaled working sets so the DRAM-contention regime matches the
	// paper's).
	CPUConfig func(id int) cpu.Config

	// App workload knobs.
	WorkingSetBytes uint32
	ScenePasses     uint32
	CmdBufBytes     uint32
	// Background memory intensity per non-app core: ALU iterations per
	// memory access (0 = idle core). Length NumCPUs-1.
	Background []uint32
	// BackgroundWSBytes is each background task's working set; sized
	// above the scaled L2 so background cores keep pressure on DRAM
	// throughout the frame (the multiprogrammed Android processes of the
	// paper's workload).
	BackgroundWSBytes uint32

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
		DisplayPeriod:     150_000,
		AppPeriod:         300_000,
		Width:             192,
		Height:            144,
		Scene:             scene,
		CPUConfig:         ScaledCPUConfig,
		WorkingSetBytes:   96 * 1024,
		ScenePasses:       1,
		CmdBufBytes:       2048,
		Background:        []uint32{4, 48, 0},
		BackgroundWSBytes: 512 * 1024,
		Frames:            4,
		WarmupFrames:      1,
	}
}

// ScaledCPUConfig shrinks the Table 5 cache hierarchy in proportion to
// the SoC's scaled frame periods and working sets (8 KB L1s, 64 KB L2),
// preserving the paper's cache-to-working-set ratios.
func ScaledCPUConfig(id int) cpu.Config {
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
	Reg *stats.Registry
	Mem *mem.Memory

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

	// phase1, when armed via SetParallel, runs the CPU core shards and
	// the display shard concurrently; nil ticks them inline in shard
	// order. Only CPU 0 (the app core) issues state-mutating syscalls —
	// frame submission touches the GL context, GPU queue and fence, all
	// unread by other shards until later serialized phases.
	phase1 *par.Group

	// wheel holds one slot per phase-1 shard (CPU cores, then the
	// display): the earliest system cycle at which that shard can change
	// state on its own. Shards re-arm their slot post-tick; DRAM retires
	// and frame flips Wake slots when they hand a parked shard new input.
	// Maintenance always runs — wheelOn gates only the skip — so results
	// are bit-identical in both modes.
	wheel   *par.Wheel
	wheelOn bool

	// trace, when armed via AttachTracer, receives frame submit/complete
	// spans and blocking-syscall spans; per-CPU state below tracks a
	// pending (blocked, retried-each-tick) syscall's start cycle.
	trace     *emtrace.Tracer
	sysStart  []uint64
	sysCode   []int32
	cpuTracks []string

	// run advances the clock and holds what its stride poll reads: the
	// guard (whose probes also run at the end of every Tick; nil costs
	// one branch), the watchdog window and the telemetry probe.
	run par.Loop
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
	s := &SoC{Cfg: cfg, Reg: reg, Mem: memory, backIsA: true}
	s.run = par.Loop{
		Cycle: &s.cycle, Skip: true,
		Tick: s.Tick, NextWake: s.NextWake,
		Done:     func() bool { return s.framesDone >= s.Cfg.Frames+s.Cfg.WarmupFrames },
		Progress: s.progressSig, Diagnose: s.diagnose, Sample: s.telemetrySample,
	}

	s.GPU = gpu.New(cfg.GPU, memory, reg)
	s.DRAM = dram.NewController(cfg.DRAM, reg)
	s.Display = NewDisplay(cfg.DisplayPeriod, reg)
	s.wheel = par.NewWheel(cfg.NumCPUs + 1)
	s.wheelOn = true
	// A retiring DRAM read is the one input that reaches a parked
	// phase-1 shard from outside: route it to the owner's wheel slot.
	// (A retiring write hands nothing back, and waking for it would cost
	// an idle system a tick per writeback.) The callback runs on
	// parallel channel shards; Wake is an atomic min. GPU fills need no
	// slot: a GPU with a fill in flight is not drained, so it is ticking.
	s.DRAM.SetOnRetire(func(r *mem.Request, cycle uint64) {
		switch {
		case r.Kind == mem.Write:
		case r.Client == mem.ClientCPU:
			if r.ClientID >= 0 && r.ClientID < cfg.NumCPUs {
				s.wheel.Wake(r.ClientID, cycle+1)
			}
		case r.Client == mem.ClientDisplay:
			s.wheel.Wake(cfg.NumCPUs, cycle+1)
		}
	})

	// Ports: CPUs, GPU, display.
	s.noc = interconnect.New(interconnect.Config{
		Name: "sys_noc", Ports: cfg.NumCPUs + 2, Latency: 10, Width: 4, Depth: 64,
	}, s.DRAM.Push, reg)

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
		mkCfg := cfg.CPUConfig
		if mkCfg == nil {
			mkCfg = ScaledCPUConfig
		}
		core := cpu.NewCore(mkCfg(i), prog, memory, reg)
		core.Sys = s.syscall
		// Workload parameters.
		core.Regs[10] = 0x6000_0000 + uint32(i)<<24 // working set base
		if i == 0 {
			core.Regs[11] = cfg.WorkingSetBytes
			core.Regs[12] = 0x7000_0000
			core.Regs[13] = cfg.CmdBufBytes
			core.Regs[14] = cfg.ScenePasses
		} else if bi := i - 1; bi < len(cfg.Background) && cfg.Background[bi] > 0 {
			ws := cfg.BackgroundWSBytes
			if ws == 0 {
				ws = 512 * 1024
			}
			core.Regs[11] = ws
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
	return s, nil
}

// SetParallel arms the deterministic parallel tick engine across the
// whole system: CPU cores and the display become phase-1 shards, GPU
// clusters and DRAM channels become shards of their subsystems' tick
// phases. A nil pool (or pool of size 1) restores the inline paths,
// which execute the exact statement order of the sequential engine;
// see DESIGN.md for the shard-ownership argument that makes the
// parallel schedule bit-identical.
func (s *SoC) SetParallel(p *par.Pool) {
	s.GPU.SetParallel(p)
	s.DRAM.SetParallel(p)
	if p == nil || p.Size() <= 1 {
		s.phase1 = nil
		return
	}
	tasks := make([]func(), 0, len(s.CPUs)+1)
	for i := range s.CPUs {
		i := i
		tasks = append(tasks, func() { s.tickCPUShard(i) })
	}
	tasks = append(tasks, s.tickDisplayShard)
	s.phase1 = par.NewGroup(p, tasks)
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
// every Tick — the coordinator quiesce point, after all tick-engine
// shards have synchronized — so checking stays race-clean under
// -workers.
func (s *SoC) AttachGuard(g *guard.Checker) {
	s.run.Guard = g
	s.GPU.AttachGuard(g)
	s.noc.AttachGuard(g)
	s.DRAM.AttachGuard(g)
	for _, c := range s.CPUs {
		c.AttachGuard(g)
	}
	g.Register("wheel", "soc.shards", s.checkWheel)
	g.Register("soc", "display.requests", s.Display.checkRequests)
}

// checkWheel audits the phase-1 event wheel at the quiesce point: any
// CPU or display slot claiming its shard stays a no-op past the next
// cycle must be backed by a wake computation that agrees. A violation
// means an input path failed to wake the slot and the wheel is
// fast-forwarding over actionable work.
func (s *SoC) checkWheel(cycle uint64) error {
	for i, core := range s.CPUs {
		if due := s.wheel.At(i); due > cycle+1 {
			if w := s.cpuWake(core, cycle+1); w <= cycle+1 {
				return fmt.Errorf("cpu%d parked until %d but actionable at %d", i, due, cycle+1)
			}
		}
	}
	if due := s.wheel.At(s.Cfg.NumCPUs); due > cycle+1 {
		if w := s.Display.NextWake(cycle + 1); w <= cycle+1 {
			return fmt.Errorf("display parked until %d but actionable at %d", due, cycle+1)
		}
	}
	return nil
}

// SetWatchdog arms the forward-progress watchdog: RunCtx aborts with a
// guard.NoProgressError when no CPU or GPU instruction retires, no
// DRAM byte moves, no frame completes and no display line is served
// for window cycles (clamped to guard.MinWatchdogWindow; 0 disables).
func (s *SoC) SetWatchdog(window uint64) { s.run.Watchdog = guard.ClampWindow(window) }

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
// cycle (fast-path syscalls like yield produce no events).
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
	case cpu.SysYield:
		return "sys_yield"
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

	case cpu.SysYield:
		// Yielding burns the rest of the scheduling quantum: park the
		// core until the next quantum boundary instead of spinning
		// through the idle loop cycle by cycle.
		next := (s.cycle/yieldQuantum + 1) * yieldQuantum
		c.SleepUntil(next * uint64(s.Cfg.CPUClockMult))
		return 0, true
	}
	return 0, true
}

// yieldQuantum is the scheduling quantum (in system cycles) a yielding
// task gives up: sys_yield parks the core until the next boundary.
const yieldQuantum = 64

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
	// The flip is display input from outside its shard: a parked panel
	// may have to act sooner now (first configuration after
	// construction, or a geometry change between surfaces). No shard is
	// running in this phase, so the panel can be asked directly.
	s.wheel.Wake(s.Cfg.NumCPUs, max(s.Display.NextWake(s.cycle+1), s.cycle+1))

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

// RestoreCheckpoint seeds the system from a trace checkpoint: the
// functional memory is replaced with the snapshot (the page set is
// reconciled, so no stale pages survive), the GPU's Hi-Z summaries are
// invalidated (the restored depth buffer has no on-chip counterpart),
// and the system clock adopts the checkpoint cycle so downstream stats
// sit on the original run's timeline. Call it on a freshly built,
// idle system, before Run.
func (s *SoC) RestoreCheckpoint(cp *trace.Checkpoint) {
	cp.RestoreMemory(s.Mem)
	s.GPU.ClearHiZ()
	s.cycle = cp.Cycle
}

// SetIdleSkip enables or disables event-driven idle cycle-skipping in
// RunCtx. Results are bit-identical either way: skipping only jumps
// over cycles whose component ticks are gated no-ops, and jumps are
// clamped to the watchdog/context poll stride.
func (s *SoC) SetIdleSkip(on bool) { s.run.Skip = on }

// SetEventWheel toggles component parking across the whole system:
// CPU cores and the display on their phase-1 wheel slots, and the
// drained GPU as a whole. Where idle skipping fast-forwards only when
// every component is quiet, parking takes individual components out of
// busy periods; results are bit-identical either way.
func (s *SoC) SetEventWheel(on bool) {
	s.wheelOn = on
	s.GPU.SetParkDrained(on)
}

// SetProbe attaches a telemetry probe: RunCtx publishes a progress
// snapshot to it at every stride poll and serves its on-demand
// diagnostic requests. nil detaches. The probe reads monotone counters
// only and never writes model state, so results are bit-identical with
// or without one attached.
func (s *SoC) SetProbe(p *telemetry.Probe) { s.run.Probe = p }

// SkippedCycles returns the number of cycles fast-forwarded over by
// idle skipping since construction.
func (s *SoC) SkippedCycles() uint64 { return s.run.Skipped }

// NextWake returns the earliest future system cycle at which any
// component's state can change on its own: mem.NeverWake when the
// whole system is quiescent, the current cycle when any component has
// actionable work (in which case the run loop must not jump). The CPU
// cores and the display answer through their wheel slots, which their
// shards arm after every tick; the serial stages answer directly.
func (s *SoC) NextWake() uint64 {
	c := s.cycle
	w := s.wheel.Min()
	if w <= c || (s.fenceBusy && !s.GPU.Busy()) {
		return c // a shard is due, or fence resolution is pending
	}
	if v := s.GPU.NextWake(c); v < w {
		w = v
	}
	if v := s.noc.NextWake(c); v < w {
		w = v
	}
	if v := s.DRAM.NextWake(c); v < w {
		w = v
	}
	if s.Cfg.DASH != nil && s.nextDashFeedback < w {
		w = s.nextDashFeedback
	}
	if w <= c {
		return c
	}
	return w
}

// tickCPUShard advances CPU core i at its clock multiple and drains
// its outbound requests into its private NoC ingress port. The shard
// owns the core, its L1, and port i exclusively; core 0's syscalls may
// additionally mutate SoC frame state, which no other phase-1 shard
// reads.
func (s *SoC) tickCPUShard(i int) {
	c := s.cycle
	if s.wheelOn && !s.wheel.Due(i, c) {
		// Parked: the slot value asserts every CPU-domain tick until
		// then is a gated no-op (core sleeping/halted/blocked, caches
		// quiet, output drained).
		return
	}
	core := s.CPUs[i]
	for m := 0; m < s.Cfg.CPUClockMult; m++ {
		core.Tick(c*uint64(s.Cfg.CPUClockMult) + uint64(m))
	}
	core.Out.DrainTo(s.noc.Port(i))
	s.wheel.Arm(i, s.cpuWake(core, c+1))
}

// cpuWake converts core i's next-wake from its clock domain to system
// cycles, at or after system cycle `from`, for re-arming its wheel
// slot. Floor division is exact here: CPU cycle w falls inside system
// cycle w/mult, whose shard tick covers it.
func (s *SoC) cpuWake(core *cpu.Core, from uint64) uint64 {
	mult := uint64(s.Cfg.CPUClockMult)
	w := core.NextWake(from * mult)
	if w == mem.NeverWake {
		return mem.NeverWake
	}
	if w /= mult; w < from {
		return from
	}
	return w
}

// tickDisplayShard advances the display controller and drains its
// requests into its private NoC ingress port. The display only reads
// the front buffer (published by completeFrame, a later serialized
// phase) and its own scan-out state, so it is independent of the CPU
// shards.
func (s *SoC) tickDisplayShard() {
	c := s.cycle
	slot := s.Cfg.NumCPUs
	if s.wheelOn && !s.wheel.Due(slot, c) {
		return
	}
	s.Display.Tick(c)
	s.Display.Out.DrainTo(s.noc.Port(s.Cfg.NumCPUs + 1))
	w := s.Display.NextWake(c + 1)
	if w <= c+1 {
		w = c + 1
	}
	s.wheel.Arm(slot, w)
}

// Tick advances the SoC one system cycle. The cycle is phase-structured
// so independent shards can tick concurrently between serialized
// exchange stages (see SetParallel):
//
//	phase 1: CPU core shards + display shard   (parallel)
//	phase 2: GPU (internally: serial L2/NoC, parallel clusters, serial
//	         front end), then GPU→NoC drain, NoC, DRAM (serial
//	         scheduler tick, parallel channels)
//	phase 3: fence resolution + DASH feedback  (coordinator)
func (s *SoC) Tick() {
	c := s.cycle

	// Phase 1: CPUs (at their clock multiple) and display.
	if s.phase1 != nil {
		s.phase1.Run()
	} else {
		for i := range s.CPUs {
			s.tickCPUShard(i)
		}
		s.tickDisplayShard()
	}

	// GPU.
	s.GPU.Tick(c)
	s.GPU.Out.DrainTo(s.noc.Port(s.Cfg.NumCPUs))

	s.noc.Tick(c)
	s.DRAM.Tick(c)

	// Fence resolution.
	if s.fenceBusy && !s.GPU.Busy() {
		s.completeFrame()
	}

	// DASH progress feedback (per scheduling-unit granularity).
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

	s.run.Guard.Tick(c)
	s.cycle++
}

// Run simulates until Frames+WarmupFrames app frames have completed (or
// the budget expires), returning an error on timeout.
func (s *SoC) Run(budget uint64) error {
	return s.RunCtx(context.Background(), budget)
}

// RunCtx is Run with cancellation and self-diagnosis (see
// par.Loop.Run).
func (s *SoC) RunCtx(ctx context.Context, budget uint64) error {
	if err := s.run.Run(ctx, budget); err != nil {
		return fmt.Errorf("soc: %d/%d frames: %w", s.framesDone, s.Cfg.Frames+s.Cfg.WarmupFrames, err)
	}
	return nil
}

// progressSig sums the system's monotone progress counters: CPU and
// GPU instructions, DRAM bytes, display service and completed frames.
// Flat across a watchdog window means nothing anywhere is advancing.
func (s *SoC) progressSig() uint64 {
	var sig int64
	for _, c := range s.CPUs {
		sig += c.Instructions()
	}
	sig += s.DRAM.TotalBytes() + s.Display.Served() + int64(s.framesDone)
	return uint64(sig) + s.GPU.Progress()
}

// diagnose builds the diagnostic bundle — per-CPU state, GPU front end
// and per-core warp detail, NoC credits, DRAM queue occupancy and the
// emtrace tail when tracing is armed — for a watchdog abort (window >
// 0) or an on-demand telemetry snapshot of a healthy run (window 0).
func (s *SoC) diagnose(window uint64) guard.Diag {
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

// telemetrySample snapshots the monotone progress counters for the
// probe — the same counters progressSig folds, kept per-component so
// observers can see which engine is moving.
func (s *SoC) telemetrySample() telemetry.Sample {
	var cpu int64
	for _, c := range s.CPUs {
		cpu += c.Instructions()
	}
	return telemetry.Sample{
		Cycle:         s.cycle,
		FramesDone:    s.framesDone,
		FramesTarget:  s.Cfg.Frames + s.Cfg.WarmupFrames,
		SkippedCycles: s.run.Skipped,
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
