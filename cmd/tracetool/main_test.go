package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"emerald/internal/exp"
	"emerald/internal/geom"
)

// TestRecordMatchesHarnessTrace: the file tracetool -record writes is,
// op for op, the stream the sampled harness records for the same
// workload and size — so a region measured from a tracetool trace is
// the region a sweep job measures.
func TestRecordMatchesHarnessTrace(t *testing.T) {
	const frames, w, h = 3, 64, 48
	path := filepath.Join(t.TempDir(), "w3.trace")
	if err := doRecord(path, geom.W3Cube, frames, w, h); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.RecordWorkloadTrace(geom.W3Cube, frames, exp.Options{CS2Width: w, CS2Height: h})
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameCount() != frames || got.DrawCount() != frames {
		t.Fatalf("recorded %d frames, %d draws; want %d of each", got.FrameCount(), got.DrawCount(), frames)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("recorded %d ops, harness %d", len(got.Ops), len(want.Ops))
	}
	for i := range want.Ops {
		if !reflect.DeepEqual(got.Ops[i], want.Ops[i]) {
			t.Fatalf("op %d: recorded %s %v, harness %s %v",
				i, got.Ops[i].Name, got.Ops[i].Args, want.Ops[i].Name, want.Ops[i].Args)
		}
	}
}

// TestReplayAndResumeRun drives -checkpoint, -resume and -replay on a
// recorded trace through the replay rig.
func TestReplayAndResumeRun(t *testing.T) {
	dir := t.TempDir()
	tr, cp := filepath.Join(dir, "w3.trace"), filepath.Join(dir, "cp.bin")
	if err := doRecord(tr, geom.W3Cube, 3, 48, 48); err != nil {
		t.Fatal(err)
	}
	if err := doCheckpoint(tr, 1, cp); err != nil {
		t.Fatal(err)
	}
	if err := doResume(cp, 2); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(tr, 0, -1); err != nil {
		t.Fatal(err)
	}
}
