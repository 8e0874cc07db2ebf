package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A workload is a closed loop from one process: the next op starts when
// the previous one returns. Its ops come in rounds, each round the same
// fixed op set generated from the seed, so simulated counts taken over
// round 0 repeat exactly and every round costs the same on one commit.
// A run warms up, then repeats rounds until --seconds have passed.
type workload struct {
	name string
	why  string
	// driven: listed in BENCHMARK.json, so the driver runs and gates it.
	driven bool
	// tailPct is the percentile op_ms_tail reports, fixed per workload
	// so two runs compare the same statistic; 0 where a run has too few
	// ops (< 20) for any tail.
	tailPct int
	setup   func(e *env) (instance, error)
	// drivers are the isolated layer drivers the traced run adds.
	drivers []driver
}

// setup_s is the time to bring a workload to where measuring can start:
// building it and running its warm-up ops. It is repeated and the median
// reported, because one sample of a millisecond-sized set-up is mostly
// page faults and GC luck. The first set-up of a process pays for its
// cold heap and code and is not measured; after it come at least
// minSetupReps measured ones, and more until setupBudget has been spent,
// so a cheap set-up gets many samples and an expensive one few. A set-up
// that alone outlasts setupOnce (sampled_long's detailed reference run
// takes seconds) is done once, and that one is measured.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = 600 * time.Millisecond
	setupOnce    = 2 * time.Second
)

// env is what a workload's set-up gets: the seed, where it may write,
// and (traced runs only) the tracer for set-up spans.
type env struct {
	seed uint64
	// shrink divides every op count. 1 in real runs; the smoke test sets
	// 20 to drive each workload through the same code in a few seconds.
	shrink int
	dir    string // scratch directory inside the checkout
	tr     *tracer
}

// n scales a full-size op count down by shrink, never below 1.
func (e *env) n(full int) int { return shrunk(full, e.shrink) }

// shrunk divides a full-size count by shrink, never below 1.
func shrunk(full, shrink int) int {
	if v := full / shrink; v > 1 {
		return v
	}
	return 1
}

// counts are cumulative exact simulated counts keyed by catalogue name
// (plus a few raw sums the ratios derive from).
type counts map[string]float64

func (c counts) sub(o counts) counts {
	d := make(counts, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

type instance interface {
	// warm runs the stated warm-up ops. Modelled caches are cold at its
	// first op; nothing is measured until it returns.
	warm() error
	// round runs the fixed op set once, recording one latency per op.
	// tr is nil in untraced rounds.
	round(tr *tracer, rec *roundRec) error
	// counts returns the cumulative simulated counts so far; nil for the
	// service workloads, which simulate nothing the benchmark can see.
	counts() counts
	// check runs the correctness checks that need the finished run and
	// returns one line per failure.
	check() []string
	// finish adds the workload's own metrics.
	finish(ms metricSet)
	close()
}

// roundRec collects one round's per-op host times.
type roundRec struct {
	opBase int
	ms     []float64 // wall clock of each op
	// cpuMS is the process CPU time of each op; empty where a round's ops
	// overlap in time (sweep_cold's jobs) and no op has CPU time of its own.
	cpuMS  []float64
	failed int
	ref    *reference
	// untimed and untimedCPU are what the round spent outside what the
	// workload measures (reference bursts, sweep_cold's daemon restart);
	// they come off the round's wall and CPU time.
	untimed, untimedCPU time.Duration
}

// pause runs f with the round's clocks stopped.
func (r *roundRec) pause(f func() error) error {
	t0, c0 := time.Now(), cpuNow()
	defer func() {
		r.untimed += time.Since(t0)
		r.untimedCPU += cpuNow() - c0
	}()
	return f()
}

// op times f as the round's next op. An error fails the op and is
// handed back for rounds that cannot go on after one.
func (r *roundRec) op(f func(op int) error) error {
	if r.ref.due() {
		r.pause(func() error { r.ref.burst(); return nil }) //nolint:errcheck // never fails
	}
	t0, c0 := time.Now(), cpuNow()
	err := f(r.opBase + len(r.ms))
	wall, cpu := time.Since(t0), cpuNow()-c0
	r.add(wall, err == nil)
	r.cpuMS = append(r.cpuMS, inUnit(cpu, "ms"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: op failed:", err)
	}
	return err
}

func (r *roundRec) add(d time.Duration, ok bool) {
	r.ms = append(r.ms, float64(d)/float64(time.Millisecond))
	if !ok {
		r.failed++
	}
}

// runRecord is everything one run of one workload measured.
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Rounds    int       `json:"rounds"`
	Notes     []string  `json:"notes,omitempty"`
	Metrics   metricSet `json:"metrics"`
	// Spans summarises a traced run's spans by name.
	Spans map[string]spanSummary `json:"spans,omitempty"`
}

// spanSummary is one span name's count, median duration and median self
// time (duration minus direct children) in microseconds.
type spanSummary struct {
	N      int     `json:"n"`
	US     float64 `json:"us"`
	SelfUS float64 `json:"self_us"`
}

func summariseSpans(spans []span) map[string]spanSummary {
	us := func(ds []time.Duration) float64 {
		vals := make([]float64, len(ds))
		for i, d := range ds {
			vals[i] = inUnit(d, "us")
		}
		return median(vals)
	}
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for name, ds := range durations(spans) {
		out[name] = spanSummary{N: len(ds), US: us(ds), SelfUS: us(self[name])}
	}
	return out
}

func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// abort records a run that could not start as one attempted, failed op.
func (r *runRecord) abort(format string, args ...any) *runRecord {
	r.Attempted = 1
	r.fail(format, args...)
	return r
}

// runOpts are the knobs of one run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	shrink  int    // see env.shrink
	outDir  string // bench/out inside the checkout
	self    string // this executable, for the par arm's child process
}

// runWorkload runs one workload in this process. With trace off it
// measures the end-to-end metrics. With trace on every round records
// spans, the timed section is half as long, and the per-layer numbers
// follow: counts over round 0, span medians, the isolated layer drivers,
// the workload's paired arms and the host-time attribution.
func runWorkload(w *workload, o runOpts) *runRecord {
	rec := &runRecord{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Metrics: metricSet{}}
	scratch, err := os.MkdirTemp(o.outDir, "tmp-"+w.name+"-")
	if err != nil {
		return rec.abort("scratch dir: %v", err)
	}
	defer os.RemoveAll(scratch)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	e := &env{seed: o.seed, shrink: o.shrink, dir: scratch, tr: tr}

	ref := newReference()

	// The last instance set up is the one measured.
	var setups, setupWalls []float64
	var inst instance
	setupStart := time.Now()
	for i := 0; i <= maxSetupReps; i++ {
		if spent := time.Since(setupStart); (i == 1 && spent >= setupOnce) || (i > minSetupReps && spent >= setupBudget) {
			break
		}
		if i == 1 { // the cold one
			setups, setupWalls = nil, nil
		}
		if inst != nil {
			inst.close()
		}
		e.dir = filepath.Join(scratch, "s"+strconv.Itoa(i))
		mark := ref.mark()
		ref.burst()
		t0, c0 := time.Now(), cpuNow()
		if inst, err = w.setup(e); err != nil {
			return rec.abort("set-up: %v", err)
		}
		if err := inst.warm(); err != nil {
			inst.close()
			return rec.abort("warm-up: %v", err)
		}
		wall, cpu := time.Since(t0), cpuNow()-c0
		ref.burst()
		setups = append(setups, cpu.Seconds()*scale(ref.since(mark)))
		setupWalls = append(setupWalls, wall.Seconds())
	}
	defer inst.close()

	// A traced run spends half its time in rounds; drivers and arms get
	// the rest.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}

	var (
		walls     []float64 // one wall time per round
		opMedians []float64 // one median op latency per round
		cpus      []float64 // one reference-speed CPU time per round
		opCPUs    []float64 // one reference-speed median op CPU time per round
		ops       []float64 // every op latency, for the tail
		ms0, ms1  runtime.MemStats
		round0    counts
		roundOps  int
		untimed   time.Duration
	)
	runtime.GC()
	resetPeakRSS()
	runtime.ReadMemStats(&ms0)
	cStart := inst.counts()
	rss := sampleRSS()
	// A round is scaled by the reference bursts before it, inside it and
	// after it; the burst after one round is the burst before the next.
	mark := ref.mark()
	ref.burst()
	start := time.Now()
	// Another round starts only while a typical one still fits, so a run
	// measures for --seconds and not for up to a round longer.
	for r := 0; r == 0 || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget; r++ {
		rr := &roundRec{opBase: rec.Attempted, ref: ref}
		t0, c0 := time.Now(), cpuNow()
		err := inst.round(tr, rr)
		wall := (time.Since(t0) - rr.untimed).Seconds()
		cpu := (cpuNow() - c0 - rr.untimedCPU).Seconds()
		t0 = time.Now()
		next := ref.mark()
		ref.burst()
		k := scale(ref.since(mark))
		mark = next
		rr.untimed += time.Since(t0)
		untimed += rr.untimed
		rec.Rounds++
		rec.Attempted += len(rr.ms)
		rec.Failed += rr.failed
		if err != nil { // the op the round stopped in was attempted and failed
			rec.Attempted++
			rec.fail("round %d: %v", r, err)
			break
		}
		if r == 0 {
			roundOps = len(rr.ms)
			if cStart != nil {
				round0 = inst.counts().sub(cStart)
			}
		}
		walls, opMedians = append(walls, wall), append(opMedians, median(rr.ms))
		ops = append(ops, rr.ms...)
		opCPU := median(rr.cpuMS)
		if len(rr.cpuMS) == 0 && len(rr.ms) > 0 { // overlapping ops: the round's CPU time shared out
			opCPU = cpu * 1e3 / float64(len(rr.ms))
		}
		cpus, opCPUs = append(cpus, cpu*k), append(opCPUs, opCPU*k)
	}
	timed := (time.Since(start) - untimed).Seconds()
	rssSamples := rss.stop()
	runtime.ReadMemStats(&ms1)
	cEnd := inst.counts()

	for _, msg := range inst.check() {
		rec.Attempted++
		rec.fail("%s", msg)
	}
	if rec.Attempted == 0 {
		rec.abort("no op ran")
	}

	ms := rec.Metrics
	nOps := len(ops)
	ms.set("setup_s", median(setups), len(setups))
	ms.set("setup_wall_s", median(setupWalls), len(setupWalls))
	ms.set("cpu_s", median(cpus), len(cpus))
	ms.set("op_cpu_ms", median(opCPUs), len(ops))
	ms.set("bench.ref_ms", median(ref.ms), len(ref.ms))
	ms.set("wall_s", median(walls), len(walls))
	// The median over rounds of each round's median op: a round mixes
	// cheap and dear ops the same way every time (soc_busy's M1 and M3
	// cells), so its median is one statistic where the pooled median
	// would hop between the two kinds.
	ms.set("op_ms_p50", median(opMedians), len(ops))
	if nOps > 0 {
		ms.set("alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(nOps), nOps)
	}
	ms.set("rss_mb", median(rssSamples), len(rssSamples))
	ms.set("peak_rss_mb", rssMB("VmHWM:"), 1)
	if v, ok := tail(ops, w.tailPct); ok {
		ms.set("op_ms_tail", v, len(ops))
	}
	ms.set("fail_ratio", float64(rec.Failed)/float64(rec.Attempted), rec.Attempted)
	if cEnd == nil { // a service workload: its ops are jobs
		ms.set("jobs_per_s", float64(nOps)/timed, nOps)
	} else {
		total := cEnd.sub(cStart)
		if c := total["cycles"]; c > 0 {
			ms.set("sim_kcycles_per_s", c/1e3/timed, rec.Rounds)
		}
		if c := total["simt.warp_instrs"]; c > 0 {
			ms.set("warp_kinstr_per_s", c/1e3/timed, rec.Rounds)
		}
	}
	inst.finish(ms)

	if o.trace {
		spans := tr.spans
		rec.Spans = summariseSpans(spans)
		spanMetrics(ms, rec.Spans)
		// What recording cost: spans taken times the calibrated price of
		// one, over the time the rounds took. (Differencing a traced and
		// an untraced run cannot resolve a hundredth of a percent; the
		// report prints that difference too, for what it is worth.)
		ms.set("bench.trace_overhead_pct", 100*float64(len(spans))*spanCostNS()/(timed*1e9), len(spans))
		if round0 != nil && roundOps > 0 {
			countMetrics(ms, round0, roundOps)
		}
		runDrivers(ms, w.drivers, o.seed, o.shrink, o.outDir)
		runArms(w.name, ms, o)
		if round0 != nil && len(walls) > 0 {
			estimateShares(ms, round0, walls[0])
		}
		if err := writeChrome(filepath.Join(o.outDir, w.name+".trace.json"), spans); err != nil {
			rec.Notes = append(rec.Notes, "trace file: "+err.Error())
		}
	}
	return rec
}

// spanMetrics reports every span-kind metric as the median duration of
// the spans that carry its name, in the metric's unit. A workload that
// set the metric itself (a per-frame figure, say) keeps its value.
func spanMetrics(ms metricSet, spans map[string]spanSummary) {
	for name, s := range spans {
		d, ok := metricByName[name]
		if _, done := ms[name]; !ok || d.kind != kindSpan || done {
			continue
		}
		ms.set(name, inUnit(time.Duration(s.US*float64(time.Microsecond)), d.unit), s.N)
	}
}

// spanCostNS prices one begin/end pair on a scratch tracer.
func spanCostNS() float64 {
	const n = 100_000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(noSpan, "calibrate", i))
	}
	return float64(time.Since(t0)) / n
}

// inUnit converts a duration to a metric's time unit.
func inUnit(d time.Duration, unit string) float64 {
	switch unit {
	case "ns":
		return float64(d)
	case "us":
		return float64(d) / float64(time.Microsecond)
	case "ms":
		return float64(d) / float64(time.Millisecond)
	}
	return d.Seconds()
}

// rssSampler reads the resident set every rssPeriod on its own
// goroutine until stopped. A 20-microsecond read every 50 ms is not
// load; the median of its samples is the steady resident set, which the
// high-water mark (one GC cycle's luck) is not.
type rssSampler struct {
	quit    chan struct{}
	samples chan []float64
}

const rssPeriod = 50 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		got := []float64{rssMB("VmRSS:")}
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				got = append(got, rssMB("VmRSS:"))
			case <-s.quit:
				s.samples <- got
				return
			}
		}
	}()
	return s
}

// stop ends the sampling goroutine and returns what it read.
func (s *rssSampler) stop() []float64 {
	close(s.quit)
	return <-s.samples
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from
// the current resident set, so peak_rss_mb is the timed section's peak
// and not that of the repeated set-up before it. Best effort: without
// it the metric is the whole process's peak.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck
}

// rssMB reads one resident-set field of /proc/self/status: "VmRSS:" is
// the current resident set, "VmHWM:" its high-water mark.
func rssMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
