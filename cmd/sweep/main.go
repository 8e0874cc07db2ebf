// Command sweep reproduces the paper's figure tables through a running
// emeraldd service instead of sequential in-process runs: it expands
// the requested figures into the config matrices of Tables 6/8, submits
// one job per unique simulation point, polls to completion, and
// aggregates the results through the same internal/exp table builders
// cmd/memstudy and cmd/dfsl use — so stdout is byte-identical to the
// sequential CLIs on the same points, and a re-run is served entirely
// from the daemon's content-addressed cache.
//
// Usage:
//
//	sweep -addr http://127.0.0.1:8321 -fig all
//	sweep -fig 9,11 -scale quick -models 1,3
//	sweep -fig 19 -scale smoke -workloads 2,5
//
// Sampled mode (-sample) trades figure tables for sampled simulation:
// the client records the workload's trace, functional-passes it for
// per-frame signatures, clusters them into -sample-k regions, and
// submits one detailed region job per representative — each an
// independent, cacheable, fleet-placeable job — then reconstructs the
// whole-run cycle estimate from the weighted region means.
//
//	sweep -sample -workloads 3 -sample-frames 120 -sample-k 4
//
// Fleet mode: give -addr a comma-separated list of every node in an
// emeraldd fleet and the sweep fans out across them — jobs are placed
// by consistent hashing on the spec key (matching where the fleet
// replicates result blobs), and a node that dies mid-sweep has its
// pending jobs resubmitted to the next owner on the ring. The tables
// are byte-identical to the single-node and sequential paths.
//
//	sweep -addr http://127.0.0.1:8401,http://127.0.0.1:8402,http://127.0.0.1:8403
//
// Tables go to stdout; the cache summary goes to stderr so cold/warm
// stdouts can be diffed byte-for-byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"emerald/internal/exp"
	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

// service is what this CLI needs from its backend: the sweep-driving
// Service plus the job listing the progress ticker polls. Both
// sweep.Client (one daemon) and fleet.Client (a node fleet) satisfy
// it.
type service interface {
	sweep.Service
	Jobs(ctx context.Context) ([]sweep.Job, error)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8321", "emeraldd base URL, or a comma-separated list of fleet node URLs")
	fig := flag.String("fig", "all", "figures to regenerate: comma-separated from 9|11|12|13|17|19 (printed in that order), or all")
	scale := flag.String("scale", "quick", "experiment scale: smoke|quick|paper")
	models := flag.String("models", "", "comma-separated model ids (1=chair 2=cube 3=mask 4=triangles; default all)")
	workloads := flag.String("workloads", "", "comma-separated workload ids 1..6 (default all)")
	configs := flag.String("configs", "", "comma-separated memory configs (BAS,DCB,DTB,HMC; default all)")
	poll := flag.Duration("poll", 100*time.Millisecond, "job poll interval")
	timeout := flag.Duration("timeout", 30*time.Minute, "overall sweep deadline")
	progress := flag.Bool("progress", false, "print live progress lines for running cells to stderr every second")
	hedgeMin := flag.Duration("hedge-min", 0, "fleet mode: floor before a slow job is hedged to the next ring owner (0 = client default of 2s)")
	noHedge := flag.Bool("no-hedge", false, "fleet mode: never hedge slow jobs to a second node")
	sampled := flag.Bool("sample", false, "sampled-simulation mode: one detailed region job per representative frame instead of figure tables")
	sampleFrames := flag.Int("sample-frames", 120, "sampled mode: scenario length in frames")
	sampleK := flag.Int("sample-k", 3, "sampled mode: representative regions to select")
	sampleSpan := flag.Int("sample-span", 1, "sampled mode: detailed frames measured per region")
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	req := sweep.FigureRequest{Scale: *scale}
	var err error
	if req.Figs, err = exp.ParseFigs(*fig, sweep.Figures); err != nil {
		usageErr(err)
	}
	if req.Models, err = exp.ParseIDs(*models, 1, 4, "model"); err != nil {
		usageErr(err)
	}
	if req.Workloads, err = exp.ParseIDs(*workloads, 1, 6, "workload"); err != nil {
		usageErr(err)
	}
	req.Configs = splitList(*configs)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var addrs []string
	for _, a := range splitList(*addr) {
		addrs = append(addrs, strings.TrimRight(a, "/"))
	}
	var c service
	switch len(addrs) {
	case 0:
		usageErr(fmt.Errorf("-addr needs at least one URL"))
	case 1:
		c = &sweep.Client{Base: addrs[0]}
	default:
		fc, err := fleet.NewClient(addrs, nil)
		if err != nil {
			usageErr(err)
		}
		fc.Hedge = fleet.HedgePolicy{Disabled: *noHedge, Min: *hedgeMin}
		fmt.Fprintf(os.Stderr, "sweep: fleet of %d node(s)\n", len(addrs))
		c = fc
	}
	var notify func(sweep.Job)
	if *progress {
		// Stream each cell's completion as it lands (cache hits included),
		// alongside the once-a-second running-cell status lines.
		notify = func(j sweep.Job) {
			how := "done"
			if j.Cached {
				how = "cached"
			}
			fmt.Fprintf(os.Stderr, "sweep: %s %s %s\n", j.ID, j.Spec, how)
		}
		stop := startProgress(ctx, c, time.Second)
		defer stop()
	}
	start := time.Now()
	if *sampled {
		if err := runSampled(ctx, c, req.Workloads, sweep.SampleRequest{
			Frames: *sampleFrames, K: *sampleK, Span: *sampleSpan,
			Scale: *scale, Notify: notify,
		}, *poll, start); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}
	req.Notify = notify
	fs, err := sweep.RunFigures(ctx, c, req, *poll)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	for i, f := range fs.Figures {
		f.Table.Write(os.Stdout)
		if i < len(fs.Figures)-1 {
			fmt.Println()
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: cache %d/%d hits (%.1f%%), %d figure(s) in %s\n",
		fs.CacheHits(), len(fs.Jobs),
		100*float64(fs.CacheHits())/float64(max(len(fs.Jobs), 1)),
		len(fs.Figures), time.Since(start).Round(time.Millisecond))
}

// runSampled runs the sampled-simulation pipeline for each requested
// workload (default all six) and prints the region table and whole-run
// estimate; the cache summary goes to stderr like figure mode's.
func runSampled(ctx context.Context, c service, workloads []int, req sweep.SampleRequest,
	poll time.Duration, start time.Time) error {
	if len(workloads) == 0 {
		workloads = []int{1, 2, 3, 4, 5, 6}
	}
	jobs, hits := 0, 0
	for i, w := range workloads {
		req.Workload = w
		ss, err := sweep.RunSample(ctx, c, req, poll)
		if err != nil {
			return fmt.Errorf("W%d: %w", w, err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("W%d sampled: %d frames, %d region(s), span %d\n",
			w, req.Frames, len(ss.Regions), req.Span)
		for j, r := range ss.Regions {
			fmt.Printf("  region @ frame %3d: weight %.3f (%d frames), mean %10.0f cycles/frame\n",
				r.Frame, r.Weight, r.Count, ss.Estimate.Regions[j].MeanCycles)
		}
		fmt.Printf("  estimate: %.0f cycles/frame, %d total cycles\n",
			ss.Estimate.MeanFrameCycles, ss.Estimate.TotalCycles)
		jobs += len(ss.Jobs)
		hits += ss.CacheHits()
	}
	fmt.Fprintf(os.Stderr, "sweep: cache %d/%d hits (%.1f%%), %d workload(s) in %s\n",
		hits, jobs, 100*float64(hits)/float64(max(jobs, 1)),
		len(workloads), time.Since(start).Round(time.Millisecond))
	return nil
}

// startProgress polls the daemon's job list and prints one live status
// line per running cell to stderr (the telemetry snapshots the run
// loops publish at their stride polls). Stop waits for the goroutine
// so the last lines land before the cache summary.
func startProgress(ctx context.Context, c service, every time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				jobs, err := c.Jobs(ctx)
				if err != nil {
					continue // transient poll failure; the sweep itself will surface real errors
				}
				for _, j := range jobs {
					if j.State == sweep.JobRunning && j.Progress != nil {
						fmt.Fprintf(os.Stderr, "sweep: %s %s %s\n",
							j.ID, j.Spec, j.Progress.Line())
					}
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(2)
}
