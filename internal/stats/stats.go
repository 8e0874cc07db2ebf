// Package stats collects and reports simulation statistics: named
// counters, distributions, and time-bucketed bandwidth series. Every
// hardware model in the simulator owns a *Registry (or a scoped child of
// one) and publishes its counters there, so experiment harnesses can dump
// uniform tables without reaching into model internals.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Registry is a hierarchy of named statistics. Nothing in it is safe for
// concurrent use: a registry belongs to one system, and a system ticks
// on one goroutine (DESIGN.md "Parallelism").
type Registry struct {
	prefix   string
	counters map[string]*Counter
	dists    map[string]*Distribution
}

// NewRegistry returns an empty root registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		dists:    make(map[string]*Distribution),
	}
}

// Scope returns a view of r where every name is prefixed with
// "name.". Scoped views share storage with the root.
func (r *Registry) Scope(name string) *Registry {
	return &Registry{
		prefix:   r.prefix + name + ".",
		counters: r.counters,
		dists:    r.dists,
	}
}

// Counter returns the counter with the given name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	full := r.prefix + name
	c, ok := r.counters[full]
	if !ok {
		c = &Counter{}
		r.counters[full] = c
	}
	return c
}

// Distribution returns the distribution with the given name, creating it
// on first use.
func (r *Registry) Distribution(name string) *Distribution {
	full := r.prefix + name
	d, ok := r.dists[full]
	if !ok {
		d = &Distribution{}
		r.dists[full] = d
	}
	return d
}

// Value returns the current value of a counter, or 0 if it has never been
// touched.
func (r *Registry) Value(name string) int64 {
	if c, ok := r.counters[r.prefix+name]; ok {
		return c.Value()
	}
	return 0
}

// Names returns all counter names (fully qualified), sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Each calls f for every counter with its fully qualified name, sorted.
// Unlike Value, it is prefix-independent (usable from scoped views).
func (r *Registry) Each(f func(name string, v int64)) {
	for _, n := range r.Names() {
		f(n, r.counters[n].Value())
	}
}

// distNames returns all distribution names (fully qualified), sorted.
func (r *Registry) distNames() []string {
	names := make([]string, 0, len(r.dists))
	for n := range r.dists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dump writes "name value" lines for every counter whose fully qualified
// name contains the filter substring (empty filter matches all), then one
// summary line per matching distribution (count, mean, quantiles, range).
func (r *Registry) Dump(w io.Writer, filter string) {
	for _, n := range r.Names() {
		if filter != "" && !strings.Contains(n, filter) {
			continue
		}
		fmt.Fprintf(w, "%-48s %d\n", n, r.counters[n].Value())
	}
	for _, n := range r.distNames() {
		if filter != "" && !strings.Contains(n, filter) {
			continue
		}
		d := r.dists[n]
		fmt.Fprintf(w, "%-48s n=%d mean=%.2f p50=%.1f p95=%.1f p99=%.1f min=%.1f max=%.1f\n",
			n, d.Count(), d.Mean(), d.Quantile(0.50), d.Quantile(0.95),
			d.Quantile(0.99), d.Min(), d.Max())
	}
}

// jsonDist is a Distribution's JSON representation.
type jsonDist struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// DumpJSON writes the full registry as one JSON object with "counters"
// (name -> value) and "distributions" (name -> summary) maps, keys
// sorted, for machine consumption by plotting/regression tooling.
func (r *Registry) DumpJSON(w io.Writer) error {
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	dists := make(map[string]jsonDist, len(r.dists))
	for n, d := range r.dists {
		dists[n] = jsonDist{
			Count: d.Count(), Sum: d.Sum(), Mean: d.Mean(),
			Min: d.Min(), Max: d.Max(),
			P50: d.Quantile(0.50), P95: d.Quantile(0.95), P99: d.Quantile(0.99),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"counters":      counters,
		"distributions": dists,
	})
}

// Counter is a monotonically adjustable int64 statistic.
type Counter struct{ v int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds n (which may be negative, e.g. for occupancy gauges).
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v }

// distBuckets is the number of log₂ histogram buckets past the first:
// bucket 0 holds v < 1, bucket i (1..distBuckets) holds 2^(i-1) <= v <
// 2^i, so the histogram spans the full positive int64 range.
const distBuckets = 63

// Distribution accumulates samples into a log₂-bucketed histogram and
// reports count/sum/min/max/mean plus approximate quantiles.
type Distribution struct {
	n        int64
	sum      float64
	min, max float64
	buckets  [distBuckets + 1]int64
}

// Sample records one observation.
func (d *Distribution) Sample(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
	d.buckets[bucketOf(v)]++
}

// bucketOf maps a sample to its log₂ bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) // floor(log2(v)) + 1 for v >= 1
	if b > distBuckets {
		b = distBuckets
	}
	return b
}

// bucketBounds returns bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Quantile returns the approximate p-quantile (p in [0,1]) by linear
// interpolation within the sample's log₂ bucket, clamped to the observed
// [min, max]. With no samples it returns 0.
func (d *Distribution) Quantile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	if p <= 0 {
		return d.min
	}
	if p >= 1 {
		return d.max
	}
	target := p * float64(d.n)
	var cum float64
	for i, c := range d.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if target <= next {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(c)
			v := lo + frac*(hi-lo)
			if v < d.min {
				v = d.min
			}
			if v > d.max {
				v = d.max
			}
			return v
		}
		cum = next
	}
	return d.max
}

// HistogramBucket is one cumulative histogram bucket: Count samples
// fell at or below Upper. The telemetry plane renders these as native
// prometheus histogram buckets.
type HistogramBucket struct {
	Upper float64
	Count int64
}

// CumulativeBuckets returns the non-empty log₂ buckets as cumulative
// (upper bound, running count) pairs, in increasing bound order — the
// shape a prometheus histogram wants. Empty with no samples.
func (d *Distribution) CumulativeBuckets() []HistogramBucket {
	var out []HistogramBucket
	var cum int64
	for i, c := range d.buckets {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := bucketBounds(i)
		out = append(out, HistogramBucket{Upper: hi, Count: cum})
	}
	return out
}

// Count returns the number of samples.
func (d *Distribution) Count() int64 { return d.n }

// Sum returns the sum of all samples.
func (d *Distribution) Sum() float64 { return d.sum }

// Mean returns the sample mean (0 with no samples).
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest sample (0 with no samples).
func (d *Distribution) Min() float64 { return d.min }

// Max returns the largest sample (0 with no samples).
func (d *Distribution) Max() float64 { return d.max }
