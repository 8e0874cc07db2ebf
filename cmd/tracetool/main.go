// Command tracetool records, inspects and replays GL API traces — the
// APITrace workflow of the paper's standalone mode (Figure 8a) — and
// renders event traces captured with -trace-events as text timelines.
//
// Usage:
//
//	tracetool -record trace.bin -workload 3 -frames 4   # record W3
//	tracetool -info trace.bin                           # op/draw counts
//	tracetool -replay trace.bin                         # re-render, print cycles
//	tracetool -replay trace.bin -first 2 -last 3        # region of interest
//	tracetool -sample trace.bin -k 3                    # signatures + selected regions
//	tracetool -checkpoint trace.bin -frame 2 -o cp.bin  # functional pass, save checkpoint
//	tracetool -resume cp.bin -span 2                    # detailed replay from checkpoint
//	tracetool timeline events.json                      # text Gantt of a -trace-events file
//	tracetool timeline -source dram -width 120 events.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"emerald/internal/emtrace"
	"emerald/internal/exp"
	"emerald/internal/sample"
	"emerald/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		check(doTimeline(os.Args[2:]))
		return
	}
	record := flag.String("record", "", "record a workload trace to this file")
	workload := flag.Int("workload", 3, "workload id 1..6 for -record")
	frames := flag.Int("frames", 2, "frames to record")
	info := flag.String("info", "", "print summary of a trace file")
	replay := flag.String("replay", "", "replay a trace file on a fresh GPU")
	first := flag.Int("first", 0, "first draw to execute on replay")
	last := flag.Int("last", -1, "last draw to execute on replay (-1 = end)")
	width := flag.Int("w", 192, "viewport width for -record")
	height := flag.Int("h", 144, "viewport height for -record")
	samp := flag.String("sample", "", "functional-pass a trace: print per-frame signatures and the -k selected regions")
	k := flag.Int("k", 3, "regions to select for -sample")
	checkpoint := flag.String("checkpoint", "", "functional-pass a trace and save the checkpoint at -frame to -o")
	frameAt := flag.Int("frame", 0, "frame at whose start the -checkpoint is taken")
	outFile := flag.String("o", "checkpoint.bin", "output file for -checkpoint")
	resume := flag.String("resume", "", "restore this checkpoint into a fresh detailed GPU and replay its trace from the checkpoint's frame")
	span := flag.Int("span", 1, "frames to run in detail for -resume")
	flag.Parse()

	switch {
	case *record != "":
		check(doRecord(*record, *workload, *frames, *width, *height))
	case *info != "":
		check(doInfo(*info))
	case *replay != "":
		check(doReplay(*replay, *first, *last))
	case *samp != "":
		check(doSample(*samp, *k))
	case *checkpoint != "":
		check(doCheckpoint(*checkpoint, *frameAt, *outFile))
	case *resume != "":
		check(doResume(*resume, *span))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// replayBudget bounds each draw of -replay and -resume, in cycles.
const replayBudget = 4_000_000_000

// doRecord records a workload's API stream; nothing is simulated.
func doRecord(path string, workload, frames, w, h int) error {
	tr, err := exp.RecordWorkloadTrace(workload, frames, exp.Options{CS2Width: w, CS2Height: h})
	if err != nil {
		return err
	}
	if err := writeFile(path, tr.Save); err != nil {
		return err
	}
	fmt.Printf("recorded %d ops (%d draws) over %d frames to %s\n",
		tr.Len(), tr.DrawCount(), frames, path)
	return nil
}

func doInfo(path string) error {
	tr, err := loadTrace(path)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	for _, op := range tr.Ops {
		counts[op.Name]++
	}
	fmt.Printf("%s: %d ops, %d draws\n", path, tr.Len(), tr.DrawCount())
	for name, n := range counts {
		fmt.Printf("  %-18s %d\n", name, n)
	}
	return nil
}

// doReplay re-renders a trace on a fresh detailed GPU, each draw to
// completion as the renderer that recorded it ran them.
func doReplay(path string, first, last int) error {
	tr, err := loadTrace(path)
	if err != nil {
		return err
	}
	r := exp.NewReplay(exp.Options{BudgetCycles: replayBudget})
	if err := trace.Replay(tr, r.Ctx, trace.ReplayOptions{FirstDraw: first, LastDraw: last}); err != nil {
		return err
	}
	fmt.Printf("replayed draws %d..%d in %d GPU cycles (%d fragments shaded)\n",
		first, last, r.S.Cycle(), r.S.GPU.FragsShaded())
	return nil
}

// writeFile creates path and fills it from save.
func writeFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadTrace reads a trace file.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}

// doSample runs the functional pass over a recorded trace — timing off,
// draws through the functional executor — and prints each frame's
// workload signature plus the k regions SimPoint-style clustering
// selects to represent the scenario.
func doSample(path string, k int) error {
	tr, err := loadTrace(path)
	if err != nil {
		return err
	}
	pass, err := sample.Pass(tr, sample.PassConfig{})
	if err != nil {
		return err
	}
	regions, err := sample.SelectRegions(pass.Frames, k)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d frames\n", path, len(pass.Frames))
	fmt.Println("frame    draws    verts    prims    tiles      frags   texreads       bytes")
	for f, fi := range pass.Frames {
		s := fi.Sig
		fmt.Printf("%5d %8d %8d %8d %8d %10d %10d %11d\n",
			f, s.Draws, s.Verts, s.Prims, s.Tiles, s.Frags, s.TexReads, s.Bytes)
	}
	fmt.Printf("selected %d region(s):\n", len(regions))
	for _, r := range regions {
		fmt.Printf("  frame %3d: weight %.3f (%d of %d frames)\n",
			r.Frame, r.Weight, r.Count, len(pass.Frames))
	}
	return nil
}

// doCheckpoint functional-passes the trace up to the requested frame
// and saves the checkpoint at that frame's start.
func doCheckpoint(path string, frame int, out string) error {
	tr, err := loadTrace(path)
	if err != nil {
		return err
	}
	pass, err := sample.Pass(tr, sample.PassConfig{CheckpointAt: []int{frame}, StopAfterLast: true})
	if err != nil {
		return err
	}
	cp := pass.Checkpoints[frame]
	if err := writeFile(out, cp.Save); err != nil {
		return err
	}
	dg, err := cp.Digest()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: frame %d, %d pages, digest %s\n",
		out, cp.Frame, len(cp.Pages), dg)
	return nil
}

// doResume restores a saved checkpoint into a fresh detailed GPU and
// replays span frames of its trace from the checkpoint's frame in
// detail — the frames before it replay state-only (draws gated out) to
// rebuild the GL context, then memory is restored and the region runs
// live.
func doResume(path string, span int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	cp, err := trace.LoadCheckpoint(f)
	f.Close()
	if err != nil {
		return err
	}
	r := exp.NewReplay(exp.Options{BudgetCycles: replayBudget})
	cycles, err := r.RunRegion(cp, cp.Frame, span)
	if err != nil {
		return err
	}
	var total uint64
	for i, c := range cycles {
		fmt.Printf("frame %d: %8d cycles\n", cp.Frame+i, c)
		total += c
	}
	fmt.Printf("resumed at frame %d, ran %d frame(s) in %d GPU cycles (%d fragments shaded)\n",
		cp.Frame, len(cycles), total, r.S.GPU.FragsShaded())
	return nil
}

// doTimeline renders a -trace-events JSON file as a per-track text
// Gantt view plus the per-event profile summary.
func doTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	source := fs.String("source", "", "restrict rows to one source (gpu|simt|cache|dram|soc)")
	width := fs.Int("width", 96, "number of time-bucket columns")
	summary := fs.Bool("summary", true, "print the per-event profile summary after the timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		// Usage error: exit 2, matching the other commands.
		fmt.Fprintln(os.Stderr, "tracetool: usage: tracetool timeline [-source s] [-width n] events.json")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := emtrace.ReadChromeJSON(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	emtrace.RenderTimeline(os.Stdout, events, emtrace.TimelineOptions{
		Width:  *width,
		Source: *source,
	})
	if *summary {
		fmt.Println()
		emtrace.WriteEventSummary(os.Stdout, events, 0)
	}
	return nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}
