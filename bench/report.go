package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childDeadline bounds one workload's child process; the benchmark
// contract allows a run 180 s.
const childDeadline = 170 * time.Second

// fingerprint names the machine and build a report came from: numbers
// from different fingerprints are not a trajectory.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// workloadReport is one workload's runs. Median and Spread summarise
// the untraced runs per metric; Spread is only present with >= 4 runs.
type workloadReport struct {
	Name   string             `json:"name"`
	Runs   []*runRecord       `json:"runs"`
	Traced *runRecord         `json:"traced,omitempty"`
	Median metricSet          `json:"median"`
	Spread map[string]float64 `json:"spread,omitempty"`
}

type report struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Workloads   []*workloadReport `json:"workloads"`
}

// runChild runs one workload in its own process, so peak RSS, GC state
// and a hang stay inside it. A child that dies or overruns its deadline
// is reported as one attempted, failed op.
func runChild(self string, w *workload, seed uint64, seconds float64, trace bool) *runRecord {
	failed := func(why string) *runRecord {
		rec := &runRecord{Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds, Metrics: metricSet{}}
		rec.Metrics.set("fail_ratio", 1, 1)
		return rec.abort("%s", why)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return failed(fmt.Sprintf("child exceeded its %s deadline", childDeadline))
	}
	if err != nil {
		return failed("child: " + err.Error())
	}
	// The record is the second-to-last line, the contract line the last.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return failed("child printed no result")
	}
	var rec runRecord
	if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
		return failed("child result: " + err.Error())
	}
	return &rec
}

func reportMain(self string, seed uint64, seconds float64, runs, trace int) int {
	rep := &report{Fingerprint: machineFingerprint(), Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		wr := &workloadReport{Name: w.name}
		if trace != 1 {
			for r := 0; r < runs; r++ {
				fmt.Fprintf(os.Stderr, "bench: %s run %d/%d\n", w.name, r+1, runs)
				wr.Runs = append(wr.Runs, runChild(self, w, seed+uint64(r), seconds, false))
			}
		}
		if trace != 0 {
			fmt.Fprintf(os.Stderr, "bench: %s traced\n", w.name)
			wr.Traced = runChild(self, w, seed, seconds, true)
		}
		wr.summarise()
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.print(os.Stdout)
	out := filepath.Join(outDir, "report.json")
	data, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: report:", err)
		return 1
	}
	fmt.Printf("\nreport written to %s\n", out)
	for _, wr := range rep.Workloads {
		if wr.Median["fail_ratio"].Value > 0 {
			return 1
		}
	}
	return 0
}

// all returns every run made, the traced one last.
func (wr *workloadReport) all() []*runRecord {
	runs := append([]*runRecord{}, wr.Runs...)
	if wr.Traced != nil {
		runs = append(runs, wr.Traced)
	}
	return runs
}

// summarise takes the median over the untraced runs (the traced run
// stands in when there are none) of every end-to-end metric, and the
// spread when there are enough runs to have quartiles. fail_ratio is not
// a median: one failed op in any run, the traced one included, must
// show, so it is every failure over every attempt.
func (wr *workloadReport) summarise() {
	wr.Median = metricSet{}
	src := wr.Runs
	if len(src) == 0 && wr.Traced != nil {
		src = []*runRecord{wr.Traced}
	}
	failed, attempted := 0, 0
	for _, r := range wr.all() {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	for _, d := range metricDefs {
		if d.scope == layer {
			continue
		}
		if d.name == "fail_ratio" {
			wr.Median.set(d.name, ratio(float64(failed), float64(attempted)), attempted)
			continue
		}
		var vals []float64
		n := 0
		for _, r := range src {
			if v, ok := r.Metrics[d.name]; ok {
				vals = append(vals, v.Value)
				n += v.N
			}
		}
		if len(vals) == 0 {
			continue
		}
		wr.Median[d.name] = metricValue{Value: median(vals), Unit: d.unit, N: n}
		if len(vals) >= 4 {
			if wr.Spread == nil {
				wr.Spread = map[string]float64{}
			}
			wr.Spread[d.name] = spread(vals)
		}
	}
}

func (rep *report) print(w *os.File) {
	fp := rep.Fingerprint
	fmt.Fprintf(w, "emerald bench  commit %s  %s\n", fp.Commit, fp.Date)
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s; seed %d, %g s per run\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.Go, rep.Seed, rep.Seconds)
	fmt.Fprintln(w, "accuracy: the repository holds no hardware reference; the model is unvalidated against")
	fmt.Fprintln(w, "silicon and est_err_pct is the sampled estimate's error against its own detailed mode.")
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s (%d untraced run(s))\n", wr.Name, len(wr.Runs))
		for _, r := range wr.all() {
			for _, n := range r.Notes {
				fmt.Fprintf(w, "   FAILED: %s\n", n)
			}
		}
		fmt.Fprintf(w, "   %-28s %14s %-10s %8s %8s\n", "end-to-end", "value", "unit", "n", "spread")
		for _, d := range metricDefs {
			v, ok := wr.Median[d.name]
			if !ok || d.scope == layer {
				continue
			}
			sp := "-"
			if s, ok := wr.Spread[d.name]; ok {
				sp = fmt.Sprintf("%.1f%%", 100*s)
			}
			fmt.Fprintf(w, "   %-28s %14.4f %-10s %8d %8s\n", d.name, v.Value, v.Unit, v.N, sp)
		}
		if wr.Traced == nil {
			continue
		}
		if plain, traced := wr.Median["op_ms_p50"].Value, wr.Traced.Metrics["op_ms_p50"].Value; len(wr.Runs) > 0 && plain > 0 {
			fmt.Fprintf(w, "   traced run: op_ms_p50 %.4f ms, %+.1f%% against the untraced median (run-to-run noise included)\n",
				traced, 100*(traced/plain-1))
		}
		fmt.Fprintf(w, "   %-28s %14s %-10s %8s %4s\n", "per-layer", "value", "unit", "n", "kind")
		for _, d := range metricDefs {
			v, ok := wr.Traced.Metrics[d.name]
			if !ok || d.scope != layer {
				continue
			}
			fmt.Fprintf(w, "   %-28s %14.4f %-10s %8d %4s\n", d.name, v.Value, v.Unit, v.N, d.kind)
		}
		fmt.Fprintf(w, "   %-28s %14s %14s %8s\n", "span", "median us", "self us", "n")
		names := make([]string, 0, len(wr.Traced.Spans))
		for name := range wr.Traced.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := wr.Traced.Spans[name]
			fmt.Fprintf(w, "   %-28s %14.1f %14.1f %8d\n", name, s.US, s.SelfUS, s.N)
		}
	}
}

// compareMain prints, per workload and end-to-end metric, both values,
// the ratio with its base, the bound and a verdict; simulated counts
// are compared for equality. It returns 1 when anything regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	fmt.Printf("a: %s  commit %s  (%s, GOMAXPROCS %d)\n", args[0], a.Fingerprint.Commit, a.Fingerprint.CPU, a.Fingerprint.GOMAXPROCS)
	fmt.Printf("b: %s  commit %s  (%s, GOMAXPROCS %d)\n", args[1], b.Fingerprint.Commit, b.Fingerprint.CPU, b.Fingerprint.GOMAXPROCS)
	if a.Fingerprint.CPU != b.Fingerprint.CPU || a.Fingerprint.GOMAXPROCS != b.Fingerprint.GOMAXPROCS {
		fmt.Println("warning: the two reports come from different machines; host times do not compare")
	}
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			fmt.Printf("\n== %s: missing from b\n", wa.Name)
			bad++
			continue
		}
		fmt.Printf("\n== %s\n   %-20s %14s %14s  %-26s %7s  %s\n", wa.Name, "metric", "a", "b", "b/a (base a)", "bound", "verdict")
		for _, d := range metricDefs {
			va, oka := wa.Median[d.name]
			vb, okb := wb.Median[d.name]
			if d.scope == layer || !oka || !okb {
				continue
			}
			verdict := verdictFor(d, va.Value, vb.Value, max(wa.Spread[d.name], wb.Spread[d.name]))
			if verdict == "regress" {
				bad++
			}
			ratio := "-"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.3f (a=%.4g %s)", vb.Value/va.Value, va.Value, d.unit)
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.bound == 0 {
				bound = fmt.Sprintf("+%g", d.absBound)
			}
			fmt.Printf("   %-20s %14.4f %14.4f  %-26s %7s  %s\n", d.name, va.Value, vb.Value, ratio, bound, verdict)
		}
		if wa.Traced == nil || wb.Traced == nil {
			continue
		}
		var differ []string
		same := 0
		for _, d := range metricDefs {
			va, oka := wa.Traced.Metrics[d.name]
			vb, okb := wb.Traced.Metrics[d.name]
			if !d.exact || d.scope != layer || (!oka && !okb) {
				continue
			}
			if va.Value == vb.Value {
				same++
			} else {
				differ = append(differ, fmt.Sprintf("%s: %v vs %v", d.name, va.Value, vb.Value))
			}
		}
		sort.Strings(differ)
		fmt.Printf("   simulated counts: %d identical, %d differ\n", same, len(differ))
		for _, s := range differ {
			fmt.Printf("     differs  %s\n", s)
		}
		bad += len(differ)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// verdictFor judges b against a for one metric. spread is the wider of
// the two sides' run-to-run spreads (0 when unknown): a metric noisier
// than its bound cannot be called either way.
func verdictFor(d metricDef, a, b, spread float64) string {
	if d.bound == 0 { // an absolute bound on a metric whose good value is 0
		if b-a > d.absBound {
			return "regress"
		}
		return "ok"
	}
	if spread > d.bound {
		return "unresolved"
	}
	if a == 0 {
		return "ok"
	}
	worse := (b - a) / a
	if d.better == "higher" {
		worse = (a - b) / a
	}
	if worse > d.bound {
		return "regress"
	}
	return "ok"
}
