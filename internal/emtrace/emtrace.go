// Package emtrace is the cycle-accurate event tracing and profiling
// layer of the simulator: hardware models emit structured spans and
// instant events into a Tracer while they tick, and the collected stream
// exports as Chrome-trace-event JSON (loadable in Perfetto or
// chrome://tracing) or as a flamegraph-style text summary.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every model holds a plain *Tracer that is
//     usually nil; all emit methods are nil-receiver-safe and the
//     Active() predicate lets hot loops skip event construction with a
//     single predictable branch. No allocation happens on the disabled
//     path (Arg is passed by value; there are no variadic emitters).
//  2. Deterministic output. Events are keyed by simulated cycle, never
//     wall clock, so two runs of the same workload produce identical
//     traces.
//  3. Bounded memory. Events land in a fixed-capacity ring buffer; when
//     it wraps, the oldest events are dropped (and counted), so tracing
//     a billion-cycle run cannot exhaust host memory.
//
// Event model: an Event belongs to a Source (the coarse hardware layer:
// "gpu", "simt", "cache", "dram", "soc" — rendered as a trace process)
// and a Track within it (e.g. "cluster0", "core0_0.l1d", "ch1" —
// rendered as a trace thread). Spans cover [Cycle, Cycle+Dur]; instants
// mark a single cycle. Up to two small integer arguments ride along
// without allocating.
package emtrace

import (
	"sort"
	"sync"
)

// Standard source names used across the simulator's hardware models.
const (
	SrcGPU   = "gpu"
	SrcSIMT  = "simt"
	SrcCache = "cache"
	SrcDRAM  = "dram"
	SrcSoC   = "soc"
)

// Arg is one key/value annotation attached to an event. Values are
// int64 so emitting never allocates.
type Arg struct {
	Key string
	Val int64
}

// Kind distinguishes spans from instant events.
type Kind uint8

// Event kinds.
const (
	KindSpan Kind = iota
	KindInstant
)

// Event is one recorded trace event.
type Event struct {
	Source string // hardware layer: gpu, simt, cache, dram, soc
	Track  string // sub-unit within the layer: cluster0, ch1, ...
	Name   string
	Cycle  uint64 // start cycle (simulated time)
	Dur    uint64 // span length in cycles; 0 for instants
	Kind   Kind
	NArgs  uint8
	Args   [2]Arg
}

// End returns the cycle the event ends (== Cycle for instants).
func (e Event) End() uint64 { return e.Cycle + e.Dur }

// Tracer collects events into a ring buffer. The zero value is not
// usable; call New. A nil *Tracer is a valid no-op sink: every method
// below is safe (and cheap) to call on nil, so models hold a bare
// *Tracer field with no guard at the call sites beyond Active().
//
// Event *emission* is safe from concurrent goroutines: emit serializes
// ring writes under a mutex, so systems on different goroutines may
// share a tracer (the harnesses in internal/exp do not: a shared tracer
// makes them run one system at a time). Control methods (SetStart,
// SetEnabled, FrameMark, Events, ...) belong to the goroutine that
// drives the run.
type Tracer struct {
	on       bool
	start    uint64 // ROI: events strictly before this cycle are skipped
	frameCap int    // ROI: stop after this many FrameMark calls (0 = off)
	frames   int

	mu      sync.Mutex // guards the ring buffer fields below
	buf     []Event
	next    int // ring write position
	wrapped bool
	seq     []uint64 // emit order, parallel to buf (stable-sort key)
	seqN    uint64
	dropped uint64
}

// DefaultCapacity bounds the ring buffer when the caller does not
// choose: 1M events ≈ 100 MB, enough for several scaled frames with
// full instrumentation.
const DefaultCapacity = 1 << 20

// New creates an enabled tracer holding at most capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		on:  true,
		buf: make([]Event, 0, capacity),
		seq: make([]uint64, 0, capacity),
	}
}

// SetStart sets the region-of-interest start cycle: events beginning
// before it are discarded at emit time.
func (t *Tracer) SetStart(cycle uint64) {
	if t == nil {
		return
	}
	t.start = cycle
}

// SetFrameLimit arms the region-of-interest frame cap: after n calls to
// FrameMark the tracer disables itself. n <= 0 clears the cap.
func (t *Tracer) SetFrameLimit(n int) {
	if t == nil {
		return
	}
	t.frameCap = n
}

// FrameMark notifies the tracer that one frame (as defined by the
// driver: an app frame, a rendered frame...) completed, driving the
// SetFrameLimit region of interest.
func (t *Tracer) FrameMark() {
	if t == nil {
		return
	}
	t.frames++
	if t.frameCap > 0 && t.frames >= t.frameCap {
		t.on = false
	}
}

// Active reports whether an event starting at cycle would be recorded.
// Hot paths call this once before building event data.
func (t *Tracer) Active(cycle uint64) bool {
	return t != nil && t.on && cycle >= t.start
}

// emit appends ev to the ring, overwriting the oldest event when full.
func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		t.seq = append(t.seq, t.seqN)
	} else {
		t.buf[t.next] = ev
		t.seq[t.next] = t.seqN
		t.next++
		if t.next == cap(t.buf) {
			t.next = 0
		}
		t.wrapped = true
		t.dropped++
	}
	t.seqN++
}

// Span records a [start, end] interval on source/track.
func (t *Tracer) Span(source, track, name string, start, end uint64) {
	if !t.Active(start) {
		return
	}
	t.emit(Event{Source: source, Track: track, Name: name, Cycle: start, Dur: end - start})
}

// Span1 is Span with one annotation.
func (t *Tracer) Span1(source, track, name string, start, end uint64, a Arg) {
	if !t.Active(start) {
		return
	}
	t.emit(Event{Source: source, Track: track, Name: name, Cycle: start, Dur: end - start,
		NArgs: 1, Args: [2]Arg{a}})
}

// Span2 is Span with two annotations.
func (t *Tracer) Span2(source, track, name string, start, end uint64, a, b Arg) {
	if !t.Active(start) {
		return
	}
	t.emit(Event{Source: source, Track: track, Name: name, Cycle: start, Dur: end - start,
		NArgs: 2, Args: [2]Arg{a, b}})
}

// Instant1 is Instant with one annotation.
func (t *Tracer) Instant1(source, track, name string, cycle uint64, a Arg) {
	if !t.Active(cycle) {
		return
	}
	t.emit(Event{Source: source, Track: track, Name: name, Cycle: cycle, Kind: KindInstant,
		NArgs: 1, Args: [2]Arg{a}})
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events the ring buffer overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns a copy of the buffered events sorted by start cycle
// (ties broken by emit order). Models emit spans at completion, so raw
// ring order is not cycle order; every exporter goes through here.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	type rec struct {
		ev  Event
		seq uint64
	}
	recs := make([]rec, 0, len(t.buf))
	for i := range t.buf {
		recs = append(recs, rec{t.buf[i], t.seq[i]})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].ev.Cycle != recs[j].ev.Cycle {
			return recs[i].ev.Cycle < recs[j].ev.Cycle
		}
		return recs[i].seq < recs[j].seq
	})
	out := make([]Event, len(recs))
	for i := range recs {
		out[i] = recs[i].ev
	}
	return out
}
