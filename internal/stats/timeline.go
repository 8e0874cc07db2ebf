package stats

import (
	"fmt"
	"io"
	"sync"
)

// Timeline accumulates per-source byte counts into fixed-width time
// buckets, producing the bandwidth-versus-time series of Figures 10 and
// 14 in the paper: for each bucket, how many bytes each traffic source
// (CPU, GPU, display, ...) moved.
//
// Record is safe to call from concurrent tick-engine shards (per-bucket
// byte additions commute, so totals are worker-count-independent).
// Sources() reports first-seen order, which under concurrent recording
// is scheduling-dependent — callers that dump timelines should pin the
// column order up front with Register.
type Timeline struct {
	BucketCycles uint64
	mu           sync.Mutex
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
// recording, making Sources()/Dump output independent of which shard
// records first. Unknown names are appended; known ones are left alone.
func (t *Timeline) Register(sources ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range sources {
		if _, ok := t.index[s]; !ok {
			t.index[s] = len(t.sources)
			t.sources = append(t.sources, s)
		}
	}
}

// Record adds bytes moved by source at the given cycle.
func (t *Timeline) Record(cycle uint64, source string, bytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// Buckets returns the number of buckets recorded so far.
func (t *Timeline) Buckets() int { return len(t.buckets) }

// Bytes returns the bytes moved by source within bucket b.
func (t *Timeline) Bytes(b int, source string) uint64 {
	if b < 0 || b >= len(t.buckets) || t.buckets[b] == nil {
		return 0
	}
	si, ok := t.index[source]
	if !ok {
		return 0
	}
	return t.buckets[b][si]
}

// TotalBytes returns the total bytes moved by source across all buckets.
func (t *Timeline) TotalBytes(source string) uint64 {
	var sum uint64
	for b := range t.buckets {
		sum += t.Bytes(b, source)
	}
	return sum
}

// Series returns the per-bucket bandwidth of source in bytes-per-cycle.
func (t *Timeline) Series(source string) []float64 {
	out := make([]float64, len(t.buckets))
	for b := range t.buckets {
		out[b] = float64(t.Bytes(b, source)) / float64(t.BucketCycles)
	}
	return out
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
