// Command dfsl regenerates the paper's Case Study II results
// (Figures 17-19): work-tile granularity sweeps and dynamic
// fragment-shading load balancing on the standalone GPU.
//
// Usage:
//
//	dfsl -fig 17               # one figure (17, 18, 19)
//	dfsl -fig 17,19            # several, in the order given
//	dfsl -fig all
//	dfsl -fig 19 -scale paper -workloads 1,5
package main

import (
	"flag"
	"fmt"
	"os"

	"emerald/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figures to regenerate: comma-separated from 17|18|19 (printed in that order), or all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	workloads := flag.String("workloads", "", "comma-separated workload ids 1..6 (default all)")
	rf := exp.AddRunFlags(flag.CommandLine, "dfsl")
	flag.Parse()

	figs, err := exp.ParseFigs(*fig, exp.CaseStudyII)
	if err != nil {
		usage(err)
	}
	opt, err := exp.ByScale(*scale)
	if err != nil {
		usage(err)
	}
	ws, err := exp.ParseIDs(*workloads, 1, 6, "workload")
	if err != nil {
		usage(err)
	}
	if err := rf.Apply(&opt); err != nil {
		usage(err)
	}
	// The plan sweeps each workload once for Figures 17 and 19 (whose
	// SOPT comes from the sweeps), up to -workers cells at once.
	res, err := exp.Plan{Figs: figs, Workloads: ws, Opt: opt}.Simulate(exp.RunCell)
	check(err)
	exp.WriteFigures(os.Stdout, res.Figures())
	check(rf.Finish(os.Stdout))
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
