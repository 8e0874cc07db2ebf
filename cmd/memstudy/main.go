// Command memstudy regenerates the paper's Case Study I results
// (Figures 9-14): memory organization and scheduling on the full SoC.
//
// Usage:
//
//	memstudy -fig 9            # one figure (9, 10, 11, 12, 13, 14)
//	memstudy -fig 9,11         # several, in the order given
//	memstudy -fig all          # everything
//	memstudy -fig 9 -scale paper -models 1,3
package main

import (
	"flag"
	"fmt"
	"os"

	"emerald/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figures to regenerate: comma-separated from 9|10|11|12|13|14 (printed in that order), or all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	models := flag.String("models", "", "comma-separated model ids (1=chair 2=cube 3=mask 4=triangles; default all)")
	rf := exp.AddRunFlags(flag.CommandLine, "memstudy")
	flag.Parse()

	figs, err := exp.ParseFigs(*fig, exp.CaseStudyI)
	if err != nil {
		usage(err)
	}
	opt, err := exp.ByScale(*scale)
	if err != nil {
		usage(err)
	}
	ms, err := exp.ParseIDs(*models, 1, 4, "model")
	if err != nil {
		usage(err)
	}
	if err := rf.Apply(&opt); err != nil {
		usage(err)
	}
	// The plan simulates each cell once however many figures read it
	// (Figures 9 and 11 share the regular-load matrix, 12 and 13 the
	// high-load one), up to -workers at once.
	res, err := exp.Plan{Figs: figs, Models: ms, Opt: opt}.Simulate(exp.RunCell)
	check(err)
	exp.WriteFigures(os.Stdout, res.Figures())
	check(rf.Finish(os.Stdout))
}

// check reports a runtime failure (exit 1).
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "memstudy:", err)
		os.Exit(1)
	}
}

// usage reports a bad invocation (exit 2, the CLI usage-error
// convention shared by all four commands).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "memstudy:", err)
	os.Exit(2)
}
