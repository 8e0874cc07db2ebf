// Command memstudy regenerates the paper's Case Study I results
// (Figures 9-14): memory organization and scheduling on the full SoC.
//
// Usage:
//
//	memstudy -fig 9            # one figure (9, 10, 11, 12, 13, 14)
//	memstudy -fig all          # everything
//	memstudy -fig 9 -scale paper -models 1,3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"emerald/internal/emtrace"
	"emerald/internal/exp"
	"emerald/internal/par"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9|10|11|12|13|14|all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	models := flag.String("models", "", "comma-separated model ids (1=chair 2=cube 3=mask 4=triangles; default all)")
	traceFile := flag.String("trace-events", "", "write a Chrome/Perfetto trace-event JSON file covering every run")
	traceStart := flag.Uint64("trace-start", 0, "drop trace events before this cycle")
	traceFrames := flag.Int("trace-frames", 0, "stop tracing after this many frames (0 = all)")
	statsJSON := flag.String("stats-json", "", "write all counters and distributions as JSON to this file")
	workers := flag.Int("workers", par.DefaultWorkers(), "worker threads for the parallel tick engine (1 = sequential; results are identical)")
	watchdog := flag.Uint64("watchdog", 0, "abort after this many cycles without forward progress, with a diagnostic dump (0 = off)")
	guard := flag.Bool("guard", false, "run cycle-level microarchitectural invariant checks (MSHR leaks, SIMT stack balance, DRAM/NoC legality)")
	everyCycle := flag.Bool("every-cycle", false, "reference mode: tick every component on every cycle, with no clock jumps and no parked shards (results are identical; the digest oracle, and for debugging)")
	progress := flag.Bool("progress", false, "print a live progress line to stderr every second (cycle, frames, sim rate, skip ratio)")
	flag.Parse()

	switch *fig {
	case "9", "10", "11", "12", "13", "14", "all":
	default:
		usage(fmt.Errorf("unknown figure %q (want 9|10|11|12|13|14|all)", *fig))
	}
	opt, err := exp.ByScale(*scale)
	if err != nil {
		usage(err)
	}
	opt.WatchdogCycles = *watchdog
	opt.Guard = *guard
	opt.EveryCycle = *everyCycle
	if *workers > 1 {
		pool := par.NewPool(*workers)
		defer pool.Close()
		opt.Pool = pool
	}
	var tr *emtrace.Tracer
	if *traceFile != "" {
		tr = emtrace.New(0)
		tr.SetStart(*traceStart)
		tr.SetFrameLimit(*traceFrames)
		opt.Trace = tr
	}
	if *statsJSON != "" {
		opt.Stats = stats.NewRegistry()
	}
	if *progress {
		opt.Probe = telemetry.NewProbe()
		stop := telemetry.StartTicker(os.Stderr, opt.Probe, "memstudy: ", time.Second)
		defer stop()
	}
	var ms []int
	if *models != "" {
		for _, part := range strings.Split(*models, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 || v > 4 {
				usage(fmt.Errorf("bad model id %q", part))
			}
			ms = append(ms, v)
		}
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("9") {
		tab, err := exp.Fig09(opt, ms)
		check(err)
		tab.Write(os.Stdout)
		fmt.Println()
	}
	if want("10") {
		tl, err := exp.Fig10(opt)
		check(err)
		fmt.Println("== Figure 10: M3-HMC DRAM bandwidth by source (bytes/cycle) ==")
		tl.Dump(os.Stdout, 0)
		fmt.Println()
	}
	if want("11") {
		tab, err := exp.Fig11(opt, ms)
		check(err)
		tab.Write(os.Stdout)
		fmt.Println()
	}
	if want("12") {
		tab, err := exp.Fig12(opt, ms)
		check(err)
		tab.Write(os.Stdout)
		fmt.Println()
	}
	if want("13") {
		tab, err := exp.Fig13(opt, ms)
		check(err)
		tab.Write(os.Stdout)
		fmt.Println()
	}
	if want("14") {
		bas, dtb, err := exp.Fig14(opt)
		check(err)
		fmt.Println("== Figure 14a: M1 under BAS, DRAM bandwidth by source (bytes/cycle) ==")
		bas.Dump(os.Stdout, 0)
		fmt.Println()
		fmt.Println("== Figure 14b: M1 under DASH-DTB, DRAM bandwidth by source (bytes/cycle) ==")
		dtb.Dump(os.Stdout, 0)
	}

	if tr != nil {
		f, err := os.Create(*traceFile)
		check(err)
		check(tr.WriteChromeJSON(f))
		check(f.Close())
		fmt.Printf("wrote %s (%d events, %d dropped)\n", *traceFile, tr.Len(), tr.Dropped())
	}
	if *statsJSON != "" {
		f, err := os.Create(*statsJSON)
		check(err)
		check(opt.Stats.DumpJSON(f))
		check(f.Close())
		fmt.Println("wrote", *statsJSON)
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

// fatal reports a runtime failure (exit 1).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memstudy:", err)
	os.Exit(1)
}

// usage reports a bad invocation (exit 2, the CLI usage-error
// convention shared by all four commands).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "memstudy:", err)
	os.Exit(2)
}
