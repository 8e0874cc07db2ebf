// Command dfsl regenerates the paper's Case Study II results
// (Figures 17-19): work-tile granularity sweeps and dynamic
// fragment-shading load balancing on the standalone GPU.
//
// Usage:
//
//	dfsl -fig 17               # one figure (17, 18, 19)
//	dfsl -fig all
//	dfsl -fig 19 -scale paper -workloads 1,5
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
	fig := flag.String("fig", "all", "figure to regenerate: 17|18|19|all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	workloads := flag.String("workloads", "", "comma-separated workload ids 1..6 (default all)")
	traceFile := flag.String("trace-events", "", "write a Chrome/Perfetto trace-event JSON file covering every run")
	traceStart := flag.Uint64("trace-start", 0, "drop trace events before this cycle")
	traceFrames := flag.Int("trace-frames", 0, "stop tracing after this many frames (0 = all)")
	workers := flag.Int("workers", par.DefaultWorkers(), "worker threads for the parallel tick engine (1 = sequential; results are identical)")
	watchdog := flag.Uint64("watchdog", 0, "abort after this many cycles without forward progress, with a diagnostic dump (0 = off)")
	guard := flag.Bool("guard", false, "run cycle-level microarchitectural invariant checks (MSHR leaks, SIMT stack balance, DRAM/NoC legality)")
	everyCycle := flag.Bool("every-cycle", false, "reference mode: tick every component on every cycle, with no clock jumps and no parked shards (results are identical; the digest oracle, and for debugging)")
	statsJSON := flag.String("stats-json", "", "write all counters and distributions as JSON to this file")
	progress := flag.Bool("progress", false, "print a live progress line to stderr every second (cycle, draws, sim rate, skip ratio)")
	flag.Parse()

	switch *fig {
	case "17", "18", "19", "all":
	default:
		usage(fmt.Errorf("unknown figure %q (want 17|18|19|all)", *fig))
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
		stop := telemetry.StartTicker(os.Stderr, opt.Probe, "dfsl: ", time.Second)
		defer stop()
	}
	var ws []int
	if *workloads != "" {
		for _, part := range strings.Split(*workloads, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 || v > 6 {
				usage(fmt.Errorf("bad workload id %q", part))
			}
			ws = append(ws, v)
		}
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("17") {
		tab, err := exp.Fig17(opt, ws)
		check(err)
		tab.Write(os.Stdout)
		fmt.Println()
	}
	if want("18") {
		tab, err := exp.Fig18(opt)
		check(err)
		tab.Write(os.Stdout)
		fmt.Println()
	}
	if want("19") {
		tab, _, err := exp.Fig19(opt, ws)
		check(err)
		tab.Write(os.Stdout)
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
	fmt.Fprintln(os.Stderr, "dfsl:", err)
	os.Exit(1)
}

// usage reports a bad invocation (exit 2, the CLI usage-error
// convention shared by all four commands).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "dfsl:", err)
	os.Exit(2)
}
