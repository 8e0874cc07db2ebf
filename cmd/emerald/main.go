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

	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/shader"
)

// options carries the run configuration from flags.
type options struct {
	workload, frames, w, h, wt int
	dump, dumpStats            string
	sampleK, sampleSpan        int
}

func main() {
	var opt options
	flag.IntVar(&opt.workload, "workload", 3, "workload id 1..6 (Table 8)")
	flag.IntVar(&opt.frames, "frames", 2, "frames to render")
	flag.IntVar(&opt.w, "w", 192, "viewport width")
	flag.IntVar(&opt.h, "h", 144, "viewport height")
	flag.IntVar(&opt.wt, "wt", 1, "work-tile granularity (1..10)")
	flag.StringVar(&opt.dump, "dump", "", "write the final framebuffer to this PPM file")
	flag.StringVar(&opt.dumpStats, "stats", "", "print counters whose name contains this substring")
	sampled := flag.Bool("sampled", false, "sampled simulation: functional pass + checkpoints, detail only K representative regions, reconstruct the whole-run estimate")
	flag.IntVar(&opt.sampleK, "sample-k", 3, "sampled mode: number of representative regions to select")
	flag.IntVar(&opt.sampleSpan, "sample-span", 1, "sampled mode: detailed frames measured per region")
	disasm := flag.String("disasm", "", "disassemble a built-in shader by name (e.g. vs_transform) and exit")
	rf := exp.AddRunFlags(flag.CommandLine, "emerald")
	flag.Parse()

	if *disasm != "" {
		p := shader.ByName(*disasm)
		if p == nil {
			usage(fmt.Errorf("unknown shader %q (try vs_transform, fs_textured_earlyz, fs_textured_blend, fs_flat, saxpy)", *disasm))
		}
		fmt.Print(shader.Disassemble(p))
		return
	}
	if opt.workload < 1 || opt.workload > 6 {
		usage(fmt.Errorf("bad workload id %d (want 1..6)", opt.workload))
	}
	run := render
	if *sampled {
		var set []string
		flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		if err := sampledFlagsOK(set); err != nil {
			usage(err)
		}
		run = runSampled
	}

	eopt := exp.Quick()
	eopt.CS2Width, eopt.CS2Height = opt.w, opt.h
	eopt.BudgetCycles = 4_000_000_000
	if err := rf.Apply(&eopt); err != nil {
		usage(err)
	}
	err := run(opt, eopt)
	if err == nil {
		err = rf.Finish(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "emerald:", err)
		os.Exit(1)
	}
	if eopt.Trace != nil {
		eopt.Trace.WriteSummary(os.Stdout)
	}
}

// usage reports a bad invocation (exit 2, matching the other commands).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "emerald:", err)
	os.Exit(2)
}

// sampledFlagsOK rejects the flags -sampled cannot honour, given the
// names set on the command line: regions run on private systems,
// several at once, so there is no whole-run registry or framebuffer to
// dump, no single run for a progress probe to follow and no frame
// marks for -trace-frames to count; and they render at the Table 7
// default work-tile size.
func sampledFlagsOK(set []string) error {
	for _, name := range set {
		switch name {
		case "wt", "dump", "stats", "stats-json", "progress", "trace-frames":
			return fmt.Errorf("-%s is not supported with -sampled", name)
		}
	}
	return nil
}

// runSampled is the sampled-simulation path: one fast functional pass
// over the scenario for per-frame signatures and checkpoints, detailed
// timing only for the selected representative regions (in parallel
// across -workers), and a weighted whole-run reconstruction.
func runSampled(opt options, eopt exp.Options) error {
	start := time.Now()
	res, err := exp.RunSampled(opt.workload, opt.frames, opt.sampleK, opt.sampleSpan, eopt.Workers, eopt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	name, _ := geom.DFSLWorkloadName(opt.workload) // RunSampled built it
	fmt.Printf("%s sampled on the Table 7 GPU (%dx%d): %d frames, %d region(s), span %d\n",
		name, opt.w, opt.h, opt.frames, len(res.Regions), opt.sampleSpan)
	detailed := 0
	for i, r := range res.Regions {
		re := res.Estimate.Regions[i]
		detailed += re.Frames
		fmt.Printf("  region @ frame %3d: weight %.3f (%d frames), mean %10.0f cycles/frame\n",
			r.Frame, r.Weight, r.Count, re.MeanCycles)
	}
	fmt.Printf("estimate: %.0f cycles/frame, %d total cycles over %d frames\n",
		res.Estimate.MeanFrameCycles, res.Estimate.TotalCycles, res.Estimate.FramesTotal)
	fmt.Printf("detailed frames simulated: %d of %d (%.1fx reduction)\n",
		detailed, opt.frames, float64(opt.frames)/float64(max(detailed, 1)))
	// Wall clock goes to stderr, so two runs' stdout match byte for byte.
	fmt.Fprintf(os.Stderr, "wall clock %s\n", elapsed.Round(time.Millisecond))
	return nil
}

// render is the straight-through path: every frame in detail on the
// Case Study II renderer.
func render(opt options, eopt exp.Options) error {
	scene, err := geom.DFSLWorkload(opt.workload)
	if err != nil {
		return err
	}
	r, err := exp.NewCS2Renderer(scene, eopt)
	if err != nil {
		return err
	}
	fmt.Printf("%s on the Table 7 GPU (%dx%d, WT=%d)\n", scene.Name, opt.w, opt.h, opt.wt)
	for f := 0; f < opt.frames; f++ {
		frags0 := r.S.GPU.FragsShaded()
		cycles, err := r.RenderFrame(opt.wt, true)
		if err != nil {
			return err
		}
		fmt.Printf("frame %d: %8d cycles, %7d fragments\n", f, cycles, r.S.GPU.FragsShaded()-frags0)
	}
	if opt.dump != "" {
		if err := writePPM(opt.dump, r); err != nil {
			return err
		}
		fmt.Println("wrote", opt.dump)
	}
	if opt.dumpStats != "" {
		r.Reg.Dump(os.Stdout, opt.dumpStats)
	}
	return nil
}

// writePPM dumps the color surface as a binary PPM.
func writePPM(path string, r *exp.CS2Renderer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fb := r.Ctx.ColorSurface()
	fmt.Fprintf(f, "P6\n%d %d\n255\n", fb.Width, fb.Height)
	row := make([]byte, fb.Width*3)
	for y := 0; y < fb.Height; y++ {
		for x := 0; x < fb.Width; x++ {
			px := fb.ReadPixel(r.S.Mem(), x, y)
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
