package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"emerald"
	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/stats"
)

// TestMain lets the test binary stand in for the benchmark executable
// when the par arm re-executes "itself" as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-arm" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON fails when BENCHMARK.json and the
// code's catalogue name different workloads or metrics, or disagree on
// a unit, direction or bound.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	var driven []*workload
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 characters", w.name)
		}
		if w.driven {
			driven = append(driven, w)
		}
	}
	if len(bj.Workloads) != len(driven) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code marks %d as driven", len(bj.Workloads), len(driven))
	}
	for i, w := range driven {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	// The driver makes 4 + 22 runs per workload inside 3420 s, two builds
	// included; a run takes its seconds and a few more to set up and check.
	if total := (4 + 22*len(driven)) * (bj.RunSeconds + 4); total > 3200 {
		t.Errorf("%d workloads at %d s a run need about %d s of the driver's 3420", len(driven), bj.RunSeconds, total)
	}

	type entry struct {
		unit, better string
		bound        float64
		gated        bool
	}
	listed := map[string]entry{}
	for _, m := range bj.EndToEnd {
		listed[m.Name] = entry{m.Unit, m.Better, m.Bound, true}
	}
	for _, m := range bj.PerLayer {
		if _, dup := listed[m.Name]; dup {
			t.Errorf("%s is listed twice", m.Name)
		}
		listed[m.Name] = entry{m.Unit, m.Better, 0, false}
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.name] {
			t.Errorf("%s is in the catalogue twice", d.name)
		}
		seen[d.name] = true
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("%s (%s): name or unit outside the allowed alphabet", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		got, ok := listed[d.name]
		if !ok {
			t.Errorf("%s is emitted by the code but missing from BENCHMARK.json", d.name)
			continue
		}
		want := entry{d.unit, d.better, 0, d.scope == gated}
		if d.scope == gated {
			want.bound = d.bound
			if d.bound <= 0 || d.bound > 0.25 {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
			}
		}
		if got != want {
			t.Errorf("%s: BENCHMARK.json says %+v, the code %+v", d.name, got, want)
		}
	}
	for name := range listed {
		if !seen[name] {
			t.Errorf("%s is in BENCHMARK.json but not emitted by the code", name)
		}
	}
	if d := metricByName["setup_s"]; d == nil || d.scope != gated || d.unit != "s" || d.better != "lower" {
		t.Error("setup_s must be a gated end-to-end metric in s, lower is better")
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[100-i] = float64(i) // unsorted on purpose
	}
	if got := median(xs); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("p50 of {1,2} = %v, want 1.5", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct{ n, want int }{{10, 0}, {19, 0}, {20, 50}, {100, 90}, {160, 93}, {1000, 99}, {3000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if _, ok := tail(xs[:50], 90); ok {
		t.Error("a p90 of 50 samples has only five beyond it and must not be reported")
	}
	if v, ok := tail(xs, 90); !ok || v != 90 {
		t.Errorf("tail(101 samples, p90) = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(xs, 0); ok {
		t.Error("a workload without a tail percentile must report none")
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to the driver's formula:
// statistics.quantiles(xs, n=4) on 1..10 gives 2.75, 5.5, 8.25.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: 0, End: ms(100), Parent: noSpan},
		{Name: "submit", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "run", Start: ms(30), End: ms(90), Parent: 0},
		{Name: "inner", Start: ms(40), End: ms(50), Parent: 2},
		{Name: "open", Start: ms(95), End: -1, Parent: 0}, // never closed: ignored
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"op": ms(20), "submit": ms(20), "run": ms(50), "inner": ms(10)} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span has no self time")
	}

	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(noSpan, "x", 0)) // the untraced path must be a no-op
	tr := newTracer()
	root := tr.begin(noSpan, "root", 7)
	tr.end(tr.begin(root, "child", 7))
	tr.end(root)
	got := tr.spans
	if len(got) != 2 || got[1].Parent != root || got[1].Op != 7 || got[0].End < got[1].End {
		t.Errorf("recorded spans = %+v", got)
	}
	path := filepath.Join(t.TempDir(), "x.trace.json")
	if err := writeChrome(path, got); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &file); err != nil || len(file.TraceEvents) != 2 || file.TraceEvents[1].Ph != "X" {
		t.Errorf("trace file: %v, %+v", err, file.TraceEvents)
	}
}

// generatedInputs collects every seeded input a run would generate.
func generatedInputs(t *testing.T, seed uint64) []any {
	t.Helper()
	scene, err := fragScene(seed)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: seed, shrink: 20, dir: t.TempDir()}
	gi, err := setupGPGPUStream(e)
	if err != nil {
		t.Fatal(err)
	}
	g := gi.(*gpgpuStream)
	gen := &specGen{r: newRNG(seed, "fleet")}
	var specs []string
	for i := 0; i < 50; i++ {
		s, isNew := gen.next()
		if isNew {
			gen.done = append(gen.done, s)
		}
		specs = append(specs, s.String())
	}
	r := newRNG(seed, "dram.tick_ns_random")
	addrs := []uint64{r.next(), r.next(), r.next()}
	return []any{scene.Eye, g.x, g.y, specs, addrs}
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := generatedInputs(t, 7), generatedInputs(t, 7), generatedInputs(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different inputs")
	}
	for i := range a {
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}

	// Same seed, same simulated counts, to the last unit; another seed
	// renders other views and counts differently.
	counted := func(seed uint64) counts {
		inst, err := setupGPUFrag(&env{seed: seed, shrink: 8, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.warm(); err != nil {
			t.Fatal(err)
		}
		if err := inst.round(nil, &roundRec{}); err != nil {
			t.Fatal(err)
		}
		return inst.counts()
	}
	c7, c7again, c8 := counted(7), counted(7), counted(8)
	if !reflect.DeepEqual(c7, c7again) {
		t.Errorf("seed 7 counted differently twice:\n%v\n%v", c7, c7again)
	}
	if reflect.DeepEqual(c7, c8) {
		t.Error("seeds 7 and 8 produced identical simulated counts")
	}
}

// TestCellMatchesExp keeps buildCell, the benchmark's exported-API
// mirror of exp's Case Study I system, from drifting: one cell must
// give exactly exp.RunCaseStudyI's results.
func TestCellMatchesExp(t *testing.T) {
	opt := exp.Smoke()
	want, err := exp.RunCaseStudyI(geom.M1Chair, exp.DTB, opt.HighMbps, opt)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := emerald.SoCModel(geom.M1Chair)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := buildCell(scene, exp.DTB, opt.HighMbps, opt, stats.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(opt.BudgetCycles); err != nil {
		t.Fatal(err)
	}
	if got := sys.Results(exp.DTB.String()); got != want {
		t.Errorf("buildCell's cell gives %+v, exp.RunCaseStudyI %+v", got, want)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "some_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "some_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 109, 0, "ok"},
		{lower, 100, 111, 0, "regress"},
		{lower, 100, 50, 0, "ok"},
		{higher, 100, 91, 0, "ok"},
		{higher, 100, 89, 0, "regress"},
		{lower, 100, 150, 0.2, "unresolved"}, // noisier than its bound: no call either way
		{*metricByName["fail_ratio"], 0, 0, 0, "ok"},
		{*metricByName["fail_ratio"], 0, 0.01, 0, "regress"},
		{*metricByName["est_err_pct"], 2.6, 3.0, 0, "ok"},
		{*metricByName["est_err_pct"], 2.6, 3.2, 0, "regress"},
	} {
		if got := verdictFor(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, a=%v, b=%v, spread=%v) = %s, want %s", c.d.name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

// TestFailRatioCountsEveryRun: a median over runs would hide one failed
// run among three, and a failure in the traced run altogether.
func TestFailRatioCountsEveryRun(t *testing.T) {
	run := func(failed int) *runRecord {
		return &runRecord{Attempted: 10, Failed: failed, Metrics: metricSet{}}
	}
	for _, wr := range []*workloadReport{
		{Runs: []*runRecord{run(0), run(1), run(0)}, Traced: run(0)},
		{Runs: []*runRecord{run(0)}, Traced: run(1)},
	} {
		wr.summarise()
		if got := wr.Median["fail_ratio"]; got.Value <= 0 || got.N != 10*len(wr.all()) {
			t.Errorf("fail_ratio over %d runs with one failed op = %+v", len(wr.all()), got)
		}
	}
	clean := &workloadReport{Runs: []*runRecord{run(0)}, Traced: run(0)}
	clean.summarise()
	if got := clean.Median["fail_ratio"].Value; got != 0 {
		t.Errorf("fail_ratio of clean runs = %v", got)
	}
}

// allowedUnemitted are catalogue metrics a smoke-sized run legitimately
// leaves out: the tail needs more ops than a twentieth-size run has, and
// Group.Run may hang before the par arm's first report of either kind.
var allowedUnemitted = map[string]bool{"op_ms_tail": true, "par.dispatch_ns": true, "par.frame_speedup_w2": true}

// TestSmokeEveryWorkload drives every workload, traced and untraced, at
// a twentieth of its op counts through the code path real runs take:
// every correctness check must pass, the result lines must carry exactly
// the contract's metric names, and between them the runs must emit every
// metric the catalogue (and so BENCHMARK.json) names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec := runWorkload(w, runOpts{seed: 3, seconds: 0.2, trace: traced, shrink: 20,
				outDir: t.TempDir(), self: self})
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (traced=%v): %d of %d ops failed: %v", w.name, traced, rec.Failed, rec.Attempted, rec.Notes)
			}
			for name, v := range rec.Metrics {
				emitted[name] = true
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
			}
			for _, d := range metricDefs {
				if v := rec.Metrics[d.name].Value; d.scope == gated && v <= 0 {
					t.Errorf("%s (traced=%v): end-to-end metric %s = %v, must never be 0", w.name, traced, d.name, v)
				}
			}

			var out bytes.Buffer
			if code := printRun(&out, rec); code != 0 {
				t.Fatalf("printRun = %d", code)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var line map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("result line keys = %v", keys)
			}
			var metrics map[string]contractMetric
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			for _, d := range metricDefs {
				if _, ok := metrics[d.name]; ok != ((d.scope == gated) != traced) {
					t.Errorf("%s (traced=%v): result line has %s = %v", w.name, traced, d.name, ok)
				}
			}
		}
	}
	for _, d := range metricDefs {
		if !emitted[d.name] && !allowedUnemitted[d.name] {
			t.Errorf("%s is in the catalogue but no workload emitted it", d.name)
		}
	}
}
