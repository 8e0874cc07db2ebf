package trace

import (
	"bytes"
	"strings"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/gl"
	"emerald/internal/gpu"
	"emerald/internal/mem"
)

// Trace and checkpoint files come from outside the program (tracetool
// -replay/-resume, region jobs shipped between fleet nodes): whatever
// the bytes, loading and replaying them may fail but never panic, and
// may touch no more memory than the replay heap and MaxSurfaceDim
// allow.

// replayHeap is the fuzz contexts' object heap: room for the W3 seed,
// small enough that a hostile Viewport or blob runs out of it at once.
const replayHeap = 8 << 20

// recordContext returns a context whose draws go nowhere: recording
// and state-only replay both need a submission target, not a GPU.
func recordContext(rec gl.Recorder) *gl.Context {
	ctx := gl.NewContext(mem.NewMemory(), gl.HeapBase, replayHeap)
	ctx.Submit = func(*gpu.DrawCall) error { return nil }
	ctx.Recorder = rec
	return ctx
}

// recordW3 records two frames of the W3 cube workload and returns the
// trace with the memory it was recorded against.
func recordW3(t testing.TB) (*Trace, *mem.Memory) {
	t.Helper()
	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	ctx := recordContext(tr)
	if err := ctx.Viewport(48, 48); err != nil {
		t.Fatal(err)
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(f, 1))
		if err := ctx.DrawMesh(mesh); err != nil {
			t.Fatal(err)
		}
		ctx.FrameEnd()
	}
	return tr, ctx.Mem
}

func FuzzLoadReplay(f *testing.F) {
	tr, _ := recordW3(f)
	var seed bytes.Buffer
	if err := tr.Save(&seed); err != nil {
		f.Fatal(err)
	}
	if err := Replay(tr, recordContext(nil), ReplayAll()); err != nil {
		f.Fatalf("seed trace does not replay: %v", err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = Replay(tr, recordContext(nil), ReplayAll()) // any error is a pass
	})
}

func FuzzLoadCheckpoint(f *testing.F) {
	tr, m := recordW3(f)
	seed, err := NewCheckpointAt(tr, m, 1234, 1, tr.FrameOpEnds()[0]).Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		// As given — the footer turns nearly every mutation away — and
		// resealed, so the fields behind it get fuzzed too.
		files := [][]byte{data}
		if len(data) >= ckptMinLen {
			hp := data[:len(data)-ckptFtrLen]
			files = append(files, append(hp[:len(hp):len(hp)], footer(hp)...))
		}
		for _, file := range files {
			cp, err := LoadCheckpoint(bytes.NewReader(file))
			if err != nil {
				continue
			}
			cp.RestoreMemory(mem.NewMemory())
			_ = Replay(cp.Trace, recordContext(nil), ReplayAll())
		}
	})
}

// TestReplayRejectsOversizedOps pins the hostile-trace bug: sizes read
// from a trace file used to reach the context's allocator unchecked and
// panic the replayer with "gl: heap exhausted".
func TestReplayRejectsOversizedOps(t *testing.T) {
	big := make([]byte, replayHeap+1)
	cases := []struct {
		name string
		ops  []Op
		want string
	}{
		{"viewport past the heap", []Op{{Name: "Viewport", Args: []uint32{4096, 4096}}}, "heap exhausted"},
		{"viewport past the dimension bound", []Op{{Name: "Viewport", Args: []uint32{1 << 31, 1 << 31}}}, "outside"},
		{"buffer blob past the heap", []Op{{Name: "GenBuffer", Args: []uint32{1}},
			{Name: "BufferData", Args: []uint32{1}, Blob: big}}, "heap exhausted"},
		{"texture dimensions that overflow", []Op{{Name: "GenTexture", Args: []uint32{1}},
			{Name: "TexImage2D", Args: []uint32{1, 1 << 31, 1 << 31}}}, "outside"},
		{"external surface past the dimension bound", []Op{
			{Name: "BindSurfaces", Args: []uint32{0, 0, 1 << 20, 1 << 20, 0, 0}},
			{Name: "Clear", Args: []uint32{0, 1}}}, "larger than"},
	}
	for _, c := range cases {
		err := Replay(&Trace{Ops: c.ops}, recordContext(nil), ReplayAll())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Replay error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
