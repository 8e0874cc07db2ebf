// Command emerald is the standalone-mode driver: it renders frames of a
// built-in workload on the Table 7 GPU, reports per-frame timing and
// pipeline statistics, and can dump the framebuffer as a PPM image.
//
// Usage:
//
//	emerald -workload 6 -frames 3 -w 256 -h 192
//	emerald -workload 1 -wt 4 -dump frame.ppm
//	emerald -stats gpu            # dump matching counters afterwards
//	emerald -workload 3 -frames 120 -sampled -sample-k 4   # sampled simulation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"emerald/internal/emtrace"
	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/guard"
	"emerald/internal/mathx"
	"emerald/internal/par"
	"emerald/internal/shader"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// options carries the run configuration from flags.
type options struct {
	workload, frames, w, h, wt int
	workers                    int
	dump, dumpStats            string
	statsJSON                  string
	traceFile                  string
	traceStart                 uint64
	traceFrames                int
	watchdog                   uint64
	guard                      bool
	everyCycle                 bool
	progress                   bool
	sampled                    bool
	sampleK, sampleSpan        int
}

func main() {
	var opt options
	flag.IntVar(&opt.workload, "workload", 3, "workload id 1..6 (Table 8)")
	flag.IntVar(&opt.frames, "frames", 2, "frames to render")
	flag.IntVar(&opt.w, "w", 192, "viewport width")
	flag.IntVar(&opt.h, "h", 144, "viewport height")
	flag.IntVar(&opt.wt, "wt", 1, "work-tile granularity (1..10)")
	flag.IntVar(&opt.workers, "workers", par.DefaultWorkers(), "worker threads for the parallel tick engine (1 = sequential; results are identical)")
	flag.StringVar(&opt.dump, "dump", "", "write the final framebuffer to this PPM file")
	flag.StringVar(&opt.dumpStats, "stats", "", "print counters whose name contains this substring")
	flag.StringVar(&opt.statsJSON, "stats-json", "", "write all counters and distributions as JSON to this file")
	flag.StringVar(&opt.traceFile, "trace-events", "", "write a Chrome/Perfetto trace-event JSON file")
	flag.Uint64Var(&opt.traceStart, "trace-start", 0, "drop trace events before this cycle")
	flag.IntVar(&opt.traceFrames, "trace-frames", 0, "stop tracing after this many frames (0 = all)")
	flag.Uint64Var(&opt.watchdog, "watchdog", 0, "abort after this many cycles without forward progress, with a diagnostic dump (0 = off)")
	flag.BoolVar(&opt.guard, "guard", false, "run cycle-level microarchitectural invariant checks (MSHR leaks, SIMT stack balance, DRAM/NoC legality)")
	flag.BoolVar(&opt.everyCycle, "every-cycle", false, "reference mode: tick every component on every cycle, with no clock jumps and no parked shards (results are identical; the digest oracle, and for debugging)")
	flag.BoolVar(&opt.progress, "progress", false, "print a live progress line to stderr every second (cycle, frames, sim rate, skip ratio)")
	flag.BoolVar(&opt.sampled, "sampled", false, "sampled simulation: functional pass + checkpoints, detail only K representative regions, reconstruct the whole-run estimate")
	flag.IntVar(&opt.sampleK, "sample-k", 3, "sampled mode: number of representative regions to select")
	flag.IntVar(&opt.sampleSpan, "sample-span", 1, "sampled mode: detailed frames measured per region")
	disasm := flag.String("disasm", "", "disassemble a built-in shader by name (e.g. vs_transform) and exit")
	flag.Parse()

	if *disasm != "" {
		p := shader.ByName(*disasm)
		if p == nil {
			// Usage error: exit 2, matching the other commands.
			fmt.Fprintf(os.Stderr, "emerald: unknown shader %q (try vs_transform, fs_textured_earlyz, fs_textured_blend, fs_flat, saxpy)\n", *disasm)
			os.Exit(2)
		}
		fmt.Print(shader.Disassemble(p))
		return
	}
	if opt.workload < 1 || opt.workload > 6 {
		fmt.Fprintf(os.Stderr, "emerald: bad workload id %d (want 1..6)\n", opt.workload)
		os.Exit(2)
	}

	var err error
	if opt.sampled {
		err = runSampled(opt)
	} else {
		err = run(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "emerald:", err)
		os.Exit(1)
	}
}

// runSampled is the sampled-simulation path: one fast functional pass
// over the scenario for per-frame signatures and checkpoints, detailed
// timing only for the selected representative regions (in parallel
// across -workers), and a weighted whole-run reconstruction.
func runSampled(opt options) error {
	eopt := exp.Quick()
	eopt.CS2Width, eopt.CS2Height = opt.w, opt.h
	eopt.Guard = opt.guard
	eopt.EveryCycle = opt.everyCycle
	eopt.WatchdogCycles = opt.watchdog
	workers := opt.workers
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	res, err := exp.RunSampled(opt.workload, opt.frames, opt.sampleK, opt.sampleSpan, workers, eopt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	scene, _ := geom.DFSLWorkload(opt.workload)
	fmt.Printf("%s sampled on the Table 7 GPU (%dx%d): %d frames, %d region(s), span %d\n",
		scene.Name, opt.w, opt.h, opt.frames, len(res.Regions), opt.sampleSpan)
	detailed := 0
	for i, r := range res.Regions {
		re := res.Estimate.Regions[i]
		detailed += re.Frames
		fmt.Printf("  region @ frame %3d: weight %.3f (%d frames), mean %10.0f cycles/frame\n",
			r.Frame, r.Weight, r.Count, re.MeanCycles)
	}
	fmt.Printf("estimate: %.0f cycles/frame, %d total cycles over %d frames\n",
		res.Estimate.MeanFrameCycles, res.Estimate.TotalCycles, res.Estimate.FramesTotal)
	fmt.Printf("detailed frames simulated: %d of %d (%.1fx reduction), wall clock %s\n",
		detailed, opt.frames, float64(opt.frames)/float64(max(detailed, 1)),
		elapsed.Round(time.Millisecond))
	return nil
}

func run(opt options) error {
	workload, frames := opt.workload, opt.frames
	w, h, wt := opt.w, opt.h, opt.wt
	dump, dumpStats := opt.dump, opt.dumpStats
	scene, err := geom.DFSLWorkload(workload)
	if err != nil {
		return err
	}
	reg := stats.NewRegistry()
	s := gpu.DefaultStandalone(reg)
	s.GPU.SetWT(wt)
	if opt.workers > 1 {
		pool := par.NewPool(opt.workers)
		defer pool.Close()
		s.SetParallel(pool)
	}
	var tr *emtrace.Tracer
	if opt.traceFile != "" {
		tr = emtrace.New(0)
		tr.SetStart(opt.traceStart)
		tr.SetFrameLimit(opt.traceFrames)
		s.AttachTracer(tr)
	}
	if opt.guard {
		s.AttachGuard(guard.NewChecker())
	}
	s.SetWatchdog(opt.watchdog)
	s.SetIdleSkip(!opt.everyCycle)
	s.SetEventWheel(!opt.everyCycle)
	if opt.progress {
		probe := telemetry.NewProbe()
		s.SetProbe(probe)
		stop := telemetry.StartTicker(os.Stderr, probe, "emerald: ", time.Second)
		defer stop()
	}
	ctx := gl.NewContext(s.Mem(), 0x1000_0000, 256<<20)
	ctx.Submit = func(call *gpu.DrawCall) error { return s.GPU.SubmitDraw(call, nil) }
	ctx.OnClearDepth = s.GPU.ClearHiZ

	ctx.Viewport(w, h)
	fs := shader.FSTexturedEarlyZ
	if scene.Translucent {
		fs = shader.FSTexturedBlend
		ctx.Enable(gl.Blend)
		ctx.DepthMask(false)
		ctx.SetAlpha(0.6)
	}
	if err := ctx.UseProgram(shader.VSTransform, fs); err != nil {
		return err
	}
	ctx.SetLight(mathx.V3(0.4, 0.5, 0.8).Normalize())
	tex, err := ctx.UploadTexture(scene.Texture)
	if err != nil {
		return err
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		return err
	}
	mesh, err := ctx.UploadMesh(scene.Mesh)
	if err != nil {
		return err
	}

	fmt.Printf("%s on the Table 7 GPU (%dx%d, WT=%d)\n", scene.Name, w, h, wt)
	aspect := float32(w) / float32(h)
	for f := 0; f < frames; f++ {
		start := s.Cycle()
		frags0 := s.GPU.FragsShaded()
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(f, aspect))
		if err := ctx.DrawMesh(mesh); err != nil {
			return err
		}
		if _, err := s.RunUntilIdle(4_000_000_000); err != nil {
			return err
		}
		fmt.Printf("frame %d: %8d cycles, %7d fragments\n",
			f, s.Cycle()-start, s.GPU.FragsShaded()-frags0)
		tr.FrameMark()
	}

	if opt.traceFile != "" {
		if err := writeTrace(opt.traceFile, tr); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events, %d dropped)\n",
			opt.traceFile, tr.Len(), tr.Dropped())
		tr.WriteSummary(os.Stdout)
	}
	if opt.statsJSON != "" {
		if err := writeStatsJSON(opt.statsJSON, reg); err != nil {
			return err
		}
		fmt.Println("wrote", opt.statsJSON)
	}

	if dump != "" {
		if err := writePPM(dump, s, ctx, w, h); err != nil {
			return err
		}
		fmt.Println("wrote", dump)
	}
	if dumpStats != "" {
		reg.Dump(os.Stdout, dumpStats)
	}
	return nil
}

// writeTrace writes the collected events as Chrome trace-event JSON.
func writeTrace(path string, tr *emtrace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteChromeJSON(f)
}

// writeStatsJSON dumps the registry as JSON.
func writeStatsJSON(path string, reg *stats.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.DumpJSON(f)
}

// writePPM dumps the color surface as a binary PPM.
func writePPM(path string, s *gpu.Standalone, ctx *gl.Context, w, h int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "P6\n%d %d\n255\n", w, h)
	fb := ctx.ColorSurface()
	row := make([]byte, w*3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px := fb.ReadPixel(s.Mem(), x, y)
			row[x*3] = byte(px)
			row[x*3+1] = byte(px >> 8)
			row[x*3+2] = byte(px >> 16)
		}
		if _, err := f.Write(row); err != nil {
			return err
		}
	}
	return nil
}
