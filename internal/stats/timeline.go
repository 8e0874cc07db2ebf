package stats

import (
	"fmt"
	"io"
)

// Timeline accumulates per-source byte counts into fixed-width time
// buckets, producing the bandwidth-versus-time series of Figures 10 and
// 14 in the paper: for each bucket, how many bytes each traffic source
// (CPU, GPU, display, ...) moved.
//
// Dump prints sources in first-seen order; callers that want a fixed
// column order, whatever traffic arrives first, pin it up front with
// Register.
type Timeline struct {
	BucketCycles uint64
	sources      []string
	index        map[string]int
	buckets      []map[int]uint64 // bucket -> source index -> bytes
}

// NewTimeline creates a timeline with the given bucket width in cycles.
func NewTimeline(bucketCycles uint64) *Timeline {
	if bucketCycles == 0 {
		bucketCycles = 1
	}
	return &Timeline{
		BucketCycles: bucketCycles,
		index:        make(map[string]int),
	}
}

// Register pins the given sources (and their column order) ahead of any
// recording, making Dump output independent of which source records
// first. Unknown names are appended; known ones are left alone.
func (t *Timeline) Register(sources ...string) {
	for _, s := range sources {
		if _, ok := t.index[s]; !ok {
			t.index[s] = len(t.sources)
			t.sources = append(t.sources, s)
		}
	}
}

// Record adds bytes moved by source at the given cycle.
func (t *Timeline) Record(cycle uint64, source string, bytes uint64) {
	b := int(cycle / t.BucketCycles)
	for len(t.buckets) <= b {
		t.buckets = append(t.buckets, nil)
	}
	if t.buckets[b] == nil {
		t.buckets[b] = make(map[int]uint64)
	}
	si, ok := t.index[source]
	if !ok {
		si = len(t.sources)
		t.index[source] = si
		t.sources = append(t.sources, source)
	}
	t.buckets[b][si] += bytes
}

// Dump writes a CSV-ish table: one row per bucket, one column per source,
// values in bytes/cycle. cyclesPerMS converts bucket index to
// milliseconds for the first column (0 disables the conversion and prints
// the raw bucket start cycle).
func (t *Timeline) Dump(w io.Writer, cyclesPerMS float64) {
	// Column widths track the source names so headers and values stay
	// aligned even for names longer than the 12-char value format.
	widths := make([]int, len(t.sources))
	fmt.Fprintf(w, "%-10s", "time")
	for si, s := range t.sources {
		widths[si] = len(s)
		if widths[si] < 12 {
			widths[si] = 12
		}
		fmt.Fprintf(w, " %*s", widths[si], s)
	}
	fmt.Fprintln(w)
	for b := range t.buckets {
		start := float64(uint64(b) * t.BucketCycles)
		if cyclesPerMS > 0 {
			fmt.Fprintf(w, "%-10.3f", start/cyclesPerMS)
		} else {
			fmt.Fprintf(w, "%-10.0f", start)
		}
		for si := range t.sources {
			var v uint64
			if t.buckets[b] != nil {
				v = t.buckets[b][si]
			}
			fmt.Fprintf(w, " %*.4f", widths[si], float64(v)/float64(t.BucketCycles))
		}
		fmt.Fprintln(w)
	}
}
