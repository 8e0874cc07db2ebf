package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Host-time spans recorded by the benchmark around its own calls into
// each layer. Spans live in memory and are written out when the run
// ends. A nil *tracer records nothing, so the untraced run pays one
// nil check per call site.

type spanID int

const noSpan spanID = -1

type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent spanID
	Op     int // op index the span belongs to; -1 outside any op
}

// A tracer belongs to the one goroutine that drives the workload.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (noSpan for a root) and returns its
// id for end and for children.
func (t *tracer) begin(parent spanID, name string, op int) spanID {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), End: -1, Parent: parent, Op: op})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
}

// add records a span whose interval was measured elsewhere (job
// timestamps reported by the sweep service).
func (t *tracer) add(parent spanID, name string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Op: op})
}

// durations returns every closed span's duration by name.
func durations(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns, by span name, each closed span's duration minus
// the part its direct children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.End >= 0 && s.Parent != noSpan {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], s.End-s.Start-child[i])
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// the same shape internal/emtrace writes, with host microseconds on
// the time axis instead of simulated cycles.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans to path as Chrome trace JSON. Spans of
// one op share "op"; "parent" names the span that caused this one.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": int(s.Parent), "op": s.Op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents": events,
		"metadata":    map[string]any{"clock": "host-microseconds"},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
