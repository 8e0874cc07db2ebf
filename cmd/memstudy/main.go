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
	"io"
	"os"

	"emerald/internal/exp"
	"emerald/internal/soc"
	"emerald/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9|10|11|12|13|14|all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	models := flag.String("models", "", "comma-separated model ids (1=chair 2=cube 3=mask 4=triangles; default all)")
	rf := exp.AddRunFlags(flag.CommandLine, "memstudy")
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
	ms, err := exp.ParseIDs(*models, 1, 4, "model")
	if err != nil {
		usage(err)
	}
	if err := rf.Apply(&opt); err != nil {
		usage(err)
	}
	check(printFigures(os.Stdout, *fig, opt, ms, exp.RunCaseStudyI))
	check(rf.Finish(os.Stdout))
}

// printFigures writes the requested figures to w. Figures 9 and 11 read
// the regular-load matrix and Figures 12 and 13 the high-load one, so
// each matrix cell is simulated (by run, up to opt.Workers at once) at
// most once however many figures are printed.
func printFigures(w io.Writer, fig string, opt exp.Options, models []int,
	run func(model int, cfg exp.MemConfig, dataRateMbps int, opt exp.Options) (soc.Results, error)) error {
	want := func(f string) bool { return fig == "all" || fig == f }
	byRate := map[int]exp.CS1Results{}
	table := func(f string, mbps int, build func(exp.CS1Results) *stats.Table) error {
		if !want(f) {
			return nil
		}
		res, ok := byRate[mbps]
		if !ok {
			var err error
			if res, err = exp.CaseStudyIMatrix(run, mbps, opt, models); err != nil {
				return err
			}
			byRate[mbps] = res
		}
		build(res).Write(w)
		fmt.Fprintln(w)
		return nil
	}

	if err := table("9", opt.RegularMbps, exp.Fig09Table); err != nil {
		return err
	}
	if want("10") {
		tl, err := exp.Fig10(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 10: M3-HMC DRAM bandwidth by source (bytes/cycle) ==")
		tl.Dump(w, 0)
		fmt.Fprintln(w)
	}
	if err := table("11", opt.RegularMbps, exp.Fig11Table); err != nil {
		return err
	}
	if err := table("12", opt.HighMbps, exp.Fig12Table); err != nil {
		return err
	}
	if err := table("13", opt.HighMbps, exp.Fig13Table); err != nil {
		return err
	}
	if want("14") {
		bas, dtb, err := exp.Fig14(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 14a: M1 under BAS, DRAM bandwidth by source (bytes/cycle) ==")
		bas.Dump(w, 0)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "== Figure 14b: M1 under DASH-DTB, DRAM bandwidth by source (bytes/cycle) ==")
		dtb.Dump(w, 0)
	}
	return nil
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
