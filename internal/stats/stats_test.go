package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads")
	c.Inc()
	c.Add(4)
	if got := r.Value("reads"); got != 5 {
		t.Fatalf("reads = %d, want 5", got)
	}
	if got := r.Value("never"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return same counter")
	}
	if r.Counter("x") == r.Counter("y") {
		t.Fatal("different names must return different counters")
	}
}

func TestScopePrefixes(t *testing.T) {
	r := NewRegistry()
	gpu := r.Scope("gpu")
	gpu.Counter("l2.hits").Add(7)
	if got := r.Value("gpu.l2.hits"); got != 7 {
		t.Fatalf("scoped counter via root = %d, want 7", got)
	}
	inner := gpu.Scope("core0")
	inner.Counter("warps").Inc()
	if got := r.Value("gpu.core0.warps"); got != 1 {
		t.Fatalf("nested scope = %d, want 1", got)
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	for _, v := range []float64{4, 2, 6} {
		d.Sample(v)
	}
	if d.Count() != 3 || d.Min() != 2 || d.Max() != 6 || d.Mean() != 4 {
		t.Fatalf("dist = count %d min %v max %v mean %v", d.Count(), d.Min(), d.Max(), d.Mean())
	}
	var empty Distribution
	if empty.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

// Property: counter value equals the sum of all Adds.
func TestCounterSumProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		r := NewRegistry()
		c := r.Counter("p")
		var want int64
		for _, d := range deltas {
			c.Add(int64(d))
			want += int64(d)
		}
		return c.Value() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineBuckets(t *testing.T) {
	tl := NewTimeline(100)
	tl.Record(0, "cpu", 64)
	tl.Record(99, "cpu", 64)
	tl.Record(100, "gpu", 128)
	tl.Record(350, "cpu", 32)
	if len(tl.buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(tl.buckets))
	}
	cpu, gpu := tl.index["cpu"], tl.index["gpu"]
	if got := tl.buckets[0][cpu]; got != 128 {
		t.Fatalf("bucket0 cpu = %d, want 128", got)
	}
	if got := tl.buckets[1][gpu]; got != 128 {
		t.Fatalf("bucket1 gpu = %d, want 128", got)
	}
	if tl.buckets[2] != nil {
		t.Fatalf("empty bucket = %v, want nil", tl.buckets[2])
	}
	if got := totalBytes(tl, "cpu"); got != 160 {
		t.Fatalf("total cpu = %d, want 160", got)
	}
}

// Property: the bytes recorded all land in the buckets, whatever the
// cycle ordering.
func TestTimelineConservation(t *testing.T) {
	f := func(cycles []uint16, sizes []uint8) bool {
		tl := NewTimeline(64)
		var want uint64
		n := len(cycles)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			tl.Record(uint64(cycles[i]), "s", uint64(sizes[i]))
			want += uint64(sizes[i])
		}
		return totalBytes(tl, "s") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineDump(t *testing.T) {
	tl := NewTimeline(10)
	tl.Record(5, "cpu", 100)
	var b strings.Builder
	tl.Dump(&b, 0)
	out := b.String()
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "10.0000") {
		t.Fatalf("dump output unexpected:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "config", "value")
	tb.AddRow("BAS", 1.0)
	tb.AddRow("HMC", 1.97)
	var b strings.Builder
	tb.Write(&b)
	out := b.String()
	for _, want := range []string{"Figure X", "config", "BAS", "1.970"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tb.rows) != 2 || tb.rows[1][0] != "HMC" {
		t.Fatalf("rows = %q", tb.rows)
	}
}

func TestQuantileUniform(t *testing.T) {
	var d Distribution
	for v := 1; v <= 1024; v++ {
		d.Sample(float64(v))
	}
	// Log₂ buckets give approximate quantiles; within-bucket linear
	// interpolation keeps the error under the bucket width.
	checks := []struct{ p, want, tol float64 }{
		{0, 1, 0},
		{0.50, 512, 160},
		{0.95, 973, 60},
		{0.99, 1014, 30},
		{1, 1024, 0},
	}
	for _, c := range checks {
		got := d.Quantile(c.p)
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("Quantile(%.2f) = %.1f, want %.1f ± %.0f", c.p, got, c.want, c.tol)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty Distribution
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	var one Distribution
	one.Sample(42)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(p); got != 42 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 42", p, got)
		}
	}
	var small Distribution
	small.Sample(0.25) // bucket 0 (v < 1)
	small.Sample(0.75)
	if got := small.Quantile(0.5); got < 0.25 || got > 0.75 {
		t.Fatalf("sub-1 quantile = %v, want within [0.25, 0.75]", got)
	}
}

// Property: quantiles are monotone in p and clamped to [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		var d Distribution
		for _, s := range samples {
			d.Sample(float64(s))
		}
		prev := d.Min()
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			q := d.Quantile(p)
			if q < prev || q < d.Min() || q > d.Max() {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDumpIncludesDistributions(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpu.hits").Add(3)
	d := r.Distribution("gpu.draw_cycles")
	d.Sample(100)
	d.Sample(300)
	var b strings.Builder
	r.Dump(&b, "")
	out := b.String()
	if !strings.Contains(out, "gpu.draw_cycles") {
		t.Fatalf("Dump dropped distributions:\n%s", out)
	}
	if !strings.Contains(out, "n=2") || !strings.Contains(out, "mean=200.00") {
		t.Fatalf("distribution summary wrong:\n%s", out)
	}
	var filtered strings.Builder
	r.Dump(&filtered, "hits")
	if strings.Contains(filtered.String(), "draw_cycles") {
		t.Fatal("filter leaked non-matching distributions")
	}
}

func TestDumpJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpu.hits").Add(7)
	d := r.Distribution("dram.latency")
	for _, v := range []float64{10, 20, 30, 40} {
		d.Sample(v)
	}
	var b strings.Builder
	if err := r.DumpJSON(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Counters      map[string]int64 `json:"counters"`
		Distributions map[string]struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
		} `json:"distributions"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("DumpJSON output is not valid JSON: %v", err)
	}
	if parsed.Counters["gpu.hits"] != 7 {
		t.Fatalf("counters = %v", parsed.Counters)
	}
	lat, ok := parsed.Distributions["dram.latency"]
	if !ok || lat.Count != 4 || lat.Mean != 25 || lat.Min != 10 || lat.Max != 40 {
		t.Fatalf("distributions = %+v", parsed.Distributions)
	}
	if lat.P50 < lat.Min || lat.P99 > lat.Max || lat.P50 > lat.P95 || lat.P95 > lat.P99 {
		t.Fatalf("quantiles out of order: %+v", lat)
	}
}

// TestTimelineDumpGolden pins the Dump layout, including alignment for
// source names longer than the 12-char numeric columns.
func TestTimelineDumpGolden(t *testing.T) {
	tl := NewTimeline(10)
	tl.Record(5, "cpu", 100)
	tl.Record(5, "a_very_long_source_name", 50)
	tl.Record(15, "cpu", 10)
	var b strings.Builder
	tl.Dump(&b, 0)
	got := b.String()
	want := "time                cpu a_very_long_source_name\n" +
		"0               10.0000                  5.0000\n" +
		"10               1.0000                  0.0000\n"
	if got != want {
		t.Fatalf("Timeline.Dump golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Every row must be the same width now that headers size the columns.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[0]) {
			t.Fatalf("row %d width %d != header width %d:\n%s",
				i, len(lines[i]), len(lines[0]), got)
		}
	}
}

func TestRegistryDumpFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpu.hits").Add(1)
	r.Counter("cpu.hits").Add(2)
	var b strings.Builder
	r.Dump(&b, "gpu")
	if strings.Contains(b.String(), "cpu.hits") {
		t.Fatal("filter leaked non-matching counters")
	}
	if !strings.Contains(b.String(), "gpu.hits") {
		t.Fatal("filter dropped matching counters")
	}
}

// totalBytes sums what source moved across every bucket.
func totalBytes(tl *Timeline, source string) uint64 {
	si, ok := tl.index[source]
	var sum uint64
	for _, b := range tl.buckets {
		if ok {
			sum += b[si]
		}
	}
	return sum
}
