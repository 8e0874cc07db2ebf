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
	"io"
	"os"
	"strconv"
	"strings"

	"emerald/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 17|18|19|all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	workloads := flag.String("workloads", "", "comma-separated workload ids 1..6 (default all)")
	rf := exp.AddRunFlags(flag.CommandLine, "dfsl")
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
	var ws []int
	if *workloads == "" {
		ws = []int{1, 2, 3, 4, 5, 6}
	} else {
		for _, part := range strings.Split(*workloads, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 || v > 6 {
				usage(fmt.Errorf("bad workload id %q", part))
			}
			ws = append(ws, v)
		}
	}
	rf.Apply(&opt)
	check(printFigures(os.Stdout, *fig, opt, ws, exp.RunWTSweep))
	check(rf.Finish(os.Stdout))
}

// printFigures writes the requested figures to w. Figure 17 plots the
// workloads' WT sweeps and Figure 19 picks SOPT from them, so each
// workload is swept (by sweep) once for both.
func printFigures(w io.Writer, fig string, opt exp.Options, workloads []int,
	sweep func(workload int, opt exp.Options) ([]uint64, error)) error {
	want := func(f string) bool { return fig == "all" || fig == f }
	sweeps := make(map[int][]uint64)
	if want("17") || want("19") {
		for _, wl := range workloads {
			times, err := sweep(wl, opt)
			if err != nil {
				return err
			}
			sweeps[wl] = times
		}
	}
	if want("17") {
		exp.Fig17Table(workloads, sweeps, opt.MaxWT).Write(w)
		fmt.Fprintln(w)
	}
	if want("18") {
		tab, err := exp.Fig18(opt)
		if err != nil {
			return err
		}
		tab.Write(w)
		fmt.Fprintln(w)
	}
	if want("19") {
		tab, _, err := exp.Fig19(opt, workloads, sweeps)
		if err != nil {
			return err
		}
		tab.Write(w)
	}
	return nil
}

// check reports a runtime failure (exit 1).
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsl:", err)
		os.Exit(1)
	}
}

// usage reports a bad invocation (exit 2, the CLI usage-error
// convention shared by all four commands).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "dfsl:", err)
	os.Exit(2)
}
