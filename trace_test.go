package emerald

// End-to-end check of the emtrace observability layer: render a real
// workload frame on the standalone GPU with tracing on, export Chrome
// trace-event JSON, and verify the file is decodable, well-formed, and
// contains spans from every instrumented subsystem.

import (
	"bytes"
	"encoding/json"
	"testing"

	"emerald/internal/emtrace"
	"emerald/internal/geom"
	"emerald/internal/gpu"
)

// renderTracedFrame renders one small W3 frame with a tracer attached.
func renderTracedFrame(t *testing.T) *emtrace.Tracer {
	t.Helper()
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	s := gpu.DefaultStandalone(nil)
	tr := emtrace.New(0)
	s.AttachTracer(tr)
	ctx := NewGL(s)
	if err := ctx.Viewport(96, 72); err != nil {
		t.Fatal(err)
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Clear(0xFF101020, true)
	ctx.SetMVP(scene.MVP(0, 96.0/72.0))
	if err := ctx.DrawMesh(mesh); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilIdle(4_000_000_000); err != nil {
		t.Fatal(err)
	}
	tr.FrameMark()
	return tr
}

// TestTraceEventsEndToEnd is the PR's acceptance scenario in-process:
// the exported Chrome JSON must decode, every event must carry a valid
// phase/timestamp/pid/name, data events must be in nondecreasing cycle
// order, and the gpu, simt, cache, and dram sources must all appear.
func TestTraceEventsEndToEnd(t *testing.T) {
	tr := renderTracedFrame(t)
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no events")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no traceEvents in output")
	}

	// Recover pid -> source from process_name metadata, then check every
	// data event and the cycle ordering.
	procName := map[int]string{}
	for _, e := range file.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procName[e.Pid] = e.Args["name"].(string)
		}
	}
	sources := map[string]int{}
	lastTs := -1.0
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "X", "i":
		default:
			t.Fatalf("unexpected phase %q in event %+v", e.Ph, e)
		}
		if e.Name == "" {
			t.Fatalf("event with empty name: %+v", e)
		}
		if e.Ts == nil || *e.Ts < 0 {
			t.Fatalf("event %q missing/negative ts", e.Name)
		}
		if e.Ph == "X" && e.Dur < 0 {
			t.Fatalf("span %q has negative dur %v", e.Name, e.Dur)
		}
		if e.Ph == "i" && e.S != "t" {
			t.Fatalf("instant %q has scope %q, want \"t\"", e.Name, e.S)
		}
		src, ok := procName[e.Pid]
		if !ok {
			t.Fatalf("event %q references pid %d with no process_name metadata", e.Name, e.Pid)
		}
		sources[src]++
		if *e.Ts < lastTs {
			t.Fatalf("event %q at ts %v after ts %v: not in cycle order", e.Name, *e.Ts, lastTs)
		}
		lastTs = *e.Ts
	}
	for _, want := range []string{"gpu", "simt", "cache", "dram"} {
		if sources[want] == 0 {
			t.Fatalf("no events from source %q (got %v)", want, sources)
		}
	}
}

// TestTraceRoundTripThroughReader feeds the exported JSON back through
// ReadChromeJSON (the tracetool timeline path) and checks the recovered
// events keep their sources and ordering.
func TestTraceRoundTripThroughReader(t *testing.T) {
	tr := renderTracedFrame(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := emtrace.ReadChromeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != tr.Len() {
		t.Fatalf("round trip lost events: %d != %d", len(events), tr.Len())
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("event %d out of cycle order", i)
		}
	}
	srcs := map[string]bool{}
	for _, e := range events {
		srcs[e.Source] = true
	}
	for _, want := range []string{"gpu", "simt", "cache", "dram"} {
		if !srcs[want] {
			t.Fatalf("round trip lost source %q (got %v)", want, srcs)
		}
	}
}

// TestDisabledTracerIsInert checks the default path: with no tracer
// attached the same render produces an identical cycle count, pinning
// the zero-overhead claim behaviorally (the benchmark guards timing).
func TestDisabledTracerIsInert(t *testing.T) {
	cycles := func(attach bool) uint64 {
		scene, err := geom.DFSLWorkload(geom.W3Cube)
		if err != nil {
			t.Fatal(err)
		}
		s := gpu.DefaultStandalone(nil)
		if attach {
			tr := emtrace.New(0)
			tr.SetFrameLimit(1)
			tr.FrameMark() // the ROI has ended before the draw
			s.AttachTracer(tr)
		}
		ctx := NewGL(s)
		if err := ctx.Viewport(96, 72); err != nil {
			t.Fatal(err)
		}
		mesh, err := ctx.LoadScene(scene)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(0, 96.0/72.0))
		if err := ctx.DrawMesh(mesh); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunUntilIdle(4_000_000_000); err != nil {
			t.Fatal(err)
		}
		return s.Cycle()
	}
	without, with := cycles(false), cycles(true)
	if without != with {
		t.Fatalf("disabled tracer changed simulation: %d cycles vs %d", with, without)
	}
}
