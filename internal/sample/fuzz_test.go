package sample

import (
	"bytes"
	"testing"

	"emerald/internal/trace"
)

// FuzzSamplePass feeds every trace file trace.Load accepts to the
// functional pass (tracetool -analyze and region jobs run it on traces
// from outside the program): with checkpoints requested at the first,
// middle and last frame it returns a result or an error, never panics,
// and a result holds every frame and every requested checkpoint. The
// heap is small, so a hostile Viewport or blob runs out of it at once.
func FuzzSamplePass(f *testing.F) {
	var seed bytes.Buffer
	if err := recordCube(f, 2).Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		frames := tr.FrameCount()
		at := []int{0, frames / 2, frames - 1}
		res, err := Pass(tr, PassConfig{HeapSize: 8 << 20, CheckpointAt: at})
		if err != nil {
			return
		}
		if len(res.Frames) != frames {
			t.Fatalf("pass recorded %d frames of %d", len(res.Frames), frames)
		}
		for _, fr := range at {
			if res.Checkpoints[fr] == nil {
				t.Fatalf("no checkpoint at frame %d of %d", fr, frames)
			}
		}
	})
}
