package emtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Active(0) {
		t.Fatal("nil tracer must not be active")
	}
	// None of these may panic.
	tr.SetStart(100)
	tr.SetFrameLimit(2)
	tr.FrameMark()
	tr.Span(SrcGPU, "c0", "draw", 0, 10)
	tr.Span1(SrcGPU, "c0", "draw", 0, 10, Arg{"tris", 3})
	tr.Span2(SrcGPU, "c0", "draw", 0, 10, Arg{"tris", 3}, Arg{"frags", 9})
	instant(tr, SrcDRAM, "ch0", "activate", 5)
	tr.Instant1(SrcDRAM, "ch0", "activate", 5, Arg{"bank", 1})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must report empty state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("nil WriteChromeJSON: %v", err)
	}
	tr.WriteSummary(&buf)
}

func TestSpanAndInstantRecording(t *testing.T) {
	tr := New(16)
	tr.Span(SrcGPU, "cluster0", "draw", 10, 50)
	tr.Instant1(SrcCache, "core0_0.l1d", "miss", 12, Arg{"addr", 0x40})
	tr.Span2(SrcDRAM, "ch0", "burst", 20, 24, Arg{"bytes", 32}, Arg{"bank", 3})

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != "draw" || evs[0].Cycle != 10 || evs[0].Dur != 40 || evs[0].Kind != KindSpan {
		t.Fatalf("bad span event: %+v", evs[0])
	}
	if evs[1].Name != "miss" || evs[1].Kind != KindInstant || evs[1].NArgs != 1 || evs[1].Args[0].Val != 0x40 {
		t.Fatalf("bad instant event: %+v", evs[1])
	}
	if evs[2].End() != 24 || evs[2].NArgs != 2 {
		t.Fatalf("bad span2 event: %+v", evs[2])
	}
}

func TestEventsSortedByCycle(t *testing.T) {
	tr := New(16)
	// Spans are emitted at completion, so emit order is reverse of
	// start-cycle order here.
	tr.Span(SrcGPU, "c0", "late", 100, 110)
	tr.Span(SrcGPU, "c0", "early", 5, 120)
	instant(tr, SrcGPU, "c0", "tie-a", 100)
	evs := tr.Events()
	var last uint64
	for i, e := range evs {
		if e.Cycle < last {
			t.Fatalf("events not monotone at %d: %+v", i, evs)
		}
		last = e.Cycle
	}
	if evs[0].Name != "early" {
		t.Fatalf("want early first, got %q", evs[0].Name)
	}
	// Tie at cycle 100: the span was emitted before the instant.
	if evs[1].Name != "late" || evs[2].Name != "tie-a" {
		t.Fatalf("tie broken out of emit order: %+v", evs)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		instant(tr, SrcSoC, "t", "e", uint64(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	// Newest four survive: cycles 6..9.
	for i, e := range evs {
		if e.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle = %d, want %d", i, e.Cycle, 6+i)
		}
	}
}

func TestROIStartAndFrameLimit(t *testing.T) {
	tr := New(16)
	tr.SetStart(50)
	instant(tr, SrcSoC, "t", "before", 10)
	instant(tr, SrcSoC, "t", "after", 60)
	if tr.Len() != 1 || tr.Events()[0].Name != "after" {
		t.Fatalf("SetStart filter failed: %+v", tr.Events())
	}
	if tr.Active(49) || !tr.Active(50) {
		t.Fatal("Active threshold wrong")
	}

	tr.SetFrameLimit(2)
	tr.FrameMark()
	if !tr.Active(100) {
		t.Fatal("tracer disabled after first frame, want after second")
	}
	tr.FrameMark()
	if tr.Active(100) {
		t.Fatal("tracer still active after frame limit")
	}
	instant(tr, SrcSoC, "t", "dead", 200)
	if tr.Len() != 1 {
		t.Fatal("event recorded after frame limit")
	}
}

func TestWriteChromeJSONFields(t *testing.T) {
	tr := New(16)
	tr.Span1(SrcGPU, "cluster0", "draw", 10, 50, Arg{"tris", 2})
	instant(tr, SrcDRAM, "ch0", "activate", 12)

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Other       map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if file.Other["clock"] != "simulated-cycles" {
		t.Fatalf("metadata clock = %v", file.Other["clock"])
	}

	var spans, instants, meta int
	var lastTs float64 = -1
	for _, ce := range file.TraceEvents {
		ph, _ := ce["ph"].(string)
		switch ph {
		case "M":
			meta++
			continue
		case "X":
			spans++
			if _, ok := ce["dur"].(float64); !ok {
				t.Fatalf("span without dur: %v", ce)
			}
		case "i":
			instants++
			if ce["s"] != "t" {
				t.Fatalf("instant without scope: %v", ce)
			}
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
		ts, ok := ce["ts"].(float64)
		if !ok {
			t.Fatalf("event without ts: %v", ce)
		}
		if ts < lastTs {
			t.Fatalf("ts not monotone: %v then %v", lastTs, ts)
		}
		lastTs = ts
		if _, ok := ce["pid"].(float64); !ok {
			t.Fatalf("event without pid: %v", ce)
		}
		if name, _ := ce["name"].(string); name == "" {
			t.Fatalf("event without name: %v", ce)
		}
	}
	if spans != 1 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 1/1", spans, instants)
	}
	// 2 process_name + 2 thread_name metadata entries.
	if meta != 4 {
		t.Fatalf("meta=%d, want 4", meta)
	}
}

func TestChromeJSONRoundTrip(t *testing.T) {
	tr := New(16)
	tr.Span2(SrcDRAM, "ch1", "burst", 30, 34, Arg{"bank", 2}, Arg{"bytes", 64})
	tr.Instant1(SrcSIMT, "core0_0", "stall_mem", 31, Arg{"warp", 7})

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost events: %+v", got)
	}
	want := tr.Events()
	for i := range got {
		if got[i].Source != want[i].Source || got[i].Track != want[i].Track ||
			got[i].Name != want[i].Name || got[i].Cycle != want[i].Cycle ||
			got[i].Dur != want[i].Dur || got[i].Kind != want[i].Kind {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestWriteSummary(t *testing.T) {
	tr := New(16)
	tr.Span(SrcGPU, "cluster0", "draw", 0, 100)
	tr.Span(SrcGPU, "cluster0", "draw", 100, 150)
	instant(tr, SrcCache, "l1d", "miss", 40)
	var buf bytes.Buffer
	tr.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"draw", "gpu", "cache", "miss", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}

	var empty bytes.Buffer
	New(4).WriteSummary(&empty)
	if !strings.Contains(empty.String(), "no events") {
		t.Fatalf("empty summary: %q", empty.String())
	}
}

func TestRenderTimeline(t *testing.T) {
	tr := New(16)
	tr.Span(SrcGPU, "cluster0", "draw", 0, 50)
	tr.Span2(SrcDRAM, "ch0", "burst", 10, 14, Arg{"bytes", 32}, Arg{"bank", 0})
	var buf bytes.Buffer
	RenderTimeline(&buf, tr.Events(), TimelineOptions{Width: 40})
	out := buf.String()
	for _, want := range []string{"gpu/cluster0", "dram/ch0", "bandwidth", "B total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}

	var empty bytes.Buffer
	RenderTimeline(&empty, nil, TimelineOptions{})
	if !strings.Contains(empty.String(), "no events") {
		t.Fatalf("empty timeline: %q", empty.String())
	}
}

// BenchmarkNilTracer guards the disabled fast path: emitting through a
// nil tracer must stay a couple of branches with zero allocation.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span2(SrcDRAM, "ch0", "burst", uint64(i), uint64(i+4),
			Arg{"bytes", 32}, Arg{"bank", 1})
		instant(tr, SrcSIMT, "core0_0", "stall_mem", uint64(i))
	}
}

// BenchmarkDisabledTracer covers the path models hit when tracing was
// armed but the ROI has ended.
func BenchmarkDisabledTracer(b *testing.B) {
	tr := New(64)
	tr.SetFrameLimit(1)
	tr.FrameMark()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span(SrcGPU, "cluster0", "draw", uint64(i), uint64(i+10))
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span1(SrcGPU, "cluster0", "draw", uint64(i), uint64(i+10), Arg{"tris", 1})
	}
}

// TestWriteChromeJSONEmpty pins that a tracer with no events still
// produces a loadable file: "traceEvents" must be [], not null.
func TestWriteChromeJSONEmpty(t *testing.T) {
	tr := New(8)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if string(file["traceEvents"]) == "null" {
		t.Fatalf("empty trace serialized traceEvents as null:\n%s", buf.String())
	}
	events, err := ReadChromeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("empty trace does not round-trip: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("expected no events, got %d", len(events))
	}
}

// instant records a point event at cycle, as Instant1 does with no
// annotation.
func instant(t *Tracer, source, track, name string, cycle uint64) {
	if t.Active(cycle) {
		t.emit(Event{Source: source, Track: track, Name: name, Cycle: cycle, Kind: KindInstant})
	}
}
