// Command bench is the repository's benchmark: seven workloads, the
// end-to-end metrics a user of the simulator and its sweep service
// sees, and a per-layer host-cost profile measured from outside the
// packages under test. BENCHMARK.json describes it; README.md explains
// how to read its report.
//
//	go run ./bench                              every workload, untraced then traced
//	go run ./bench -workload gpu_frag -trace 1  one run; last stdout line is its JSON result
//	go run ./bench compare a.json b.json        verdict per workload x end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// drivers names the isolated layer drivers a workload's traced run adds:
// the est_share unit costs where the workload has registry counts, and
// the drivers of the layers the workload alone should move.
//
// driven marks the workloads BENCHMARK.json lists, the ones the driver
// runs and gates. Its time limit covers 4 + 22 runs per listed workload,
// and what steadies a run on a shared host is its length, so five
// workloads run 20 s each there where seven could run 13. The two left
// to the report mode are the ones a run steadies least: sampled_long
// spends 5 s of every run on its detailed reference, and sweep_cold runs
// two simulations on two shared vCPUs for 4 s a round.
var workloads = []*workload{
	{name: "gpu_frag", driven: true, tailPct: 90, setup: setupGPUFrag, drivers: withEst((*drv).shader),
		why: "W3 frames on the standalone Table 7 GPU: the detailed pipeline's hot path (simt issue/execute, L1T/L2, fine raster)"},
	{name: "gpgpu_stream", driven: true, tailPct: 90, setup: setupGPGPUStream, drivers: withEst((*drv).mem),
		why: "SAXPY, VecAdd and ReduceAtomic on the same GPU: global loads, stores and atomics through the coalescer and L1D, no raster"},
	{name: "soc_busy", driven: true, setup: setupSoCBusy, drivers: withEst((*drv).sched),
		why: "Case Study I cells under high DRAM load: contention between cpu, gpu and display through interconnect, dram and sched"},
	{name: "soc_idle", driven: true, setup: setupSoCIdle, drivers: withEst((*drv).par),
		why: "a display-paced SoC whose cycles are nine-tenths skippable: host time is the time-advancement engine, not the components"},
	{name: "sampled_long", setup: setupSampledLong, drivers: []driver{(*drv).simtFunc, (*drv).gpuFunc, (*drv).trace},
		why: "exp.RunSampled over 480 W3 frames: the functional executor, region selection and checkpoints, bypassing the timed pipeline"},
	{name: "sweep_cold", tailPct: 67, setup: setupSweepCold, drivers: []driver{(*drv).sweep, (*drv).expStats},
		why: "every figure through an empty-cache in-process emeraldd with two job workers: what a sweep user waits for"},
	{name: "fleet_plane", driven: true, tailPct: 99, setup: setupFleetPlane, drivers: []driver{(*drv).fleet},
		why: "three fleet members with a free executor: submit, journal, queue, store, replicate and fetch with no simulation"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// outDir is where a run may write: scratch stores, trace files and the
// report. It sits inside the benchmark's own directory.
var outDir = filepath.Join("bench", "out")

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its exit code returned, so the tests' binary can
// stand in for the par arm's child process.
func run(args []string) int {
	// Load is generated from one process; pin the scheduler so a bigger
	// host does not change how many simulations and clients overlap.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload in this process and print its JSON result last")
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 22, "how long each run measures")
		trace   = fs.Int("trace", -1, "0 = end-to-end run, 1 = traced per-layer run; default both (report) or 0 (-workload)")
		runs    = fs.Int("runs", 1, "report: untraced runs per workload, seeds seed..seed+runs-1")
		arm     = fs.String("arm", "", "internal: run a paired arm's child body")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *arm == "par" {
		if err := parChild(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: par arm:", err)
			return 1
		}
		return 0
	}
	if *arm != "" {
		fmt.Fprintf(os.Stderr, "bench: unknown arm %q\n", *arm)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		return reportMain(self, *seed, *seconds, *runs, *trace)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rec := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1,
		shrink: 1, outDir: outDir, self: self})
	return printRun(os.Stdout, rec)
}

// contractMetric and contractLine are the last stdout line of a
// -workload run: exactly the keys BENCHMARK.json's driver reads.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// printRun prints the full record (for the report mode's parent), then
// the contract line: every gated end-to-end metric of an untraced run,
// every other catalogue metric of a traced one. A metric the workload
// does not exercise reads 0 there.
func printRun(w io.Writer, rec *runRecord) int {
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "bench:", n)
	}
	line := contractLine{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]contractMetric{}}
	for _, d := range metricDefs {
		if wanted := (d.scope == gated) != rec.Trace; wanted {
			line.Metrics[d.name] = contractMetric{Value: rec.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	for _, v := range []any{rec, line} {
		data, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(w, "%s\n", data)
	}
	return 0
}
