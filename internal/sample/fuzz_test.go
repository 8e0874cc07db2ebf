package sample

import (
	"bytes"
	"testing"

	"emerald/internal/trace"
)

// FuzzSamplePass feeds every trace file trace.Load accepts to the
// functional pass (tracetool -sample and -checkpoint run it on trace
// files from outside the program): with checkpoints requested at the
// first, middle and last frame it returns a result or an error, never
// panics, and a result holds every frame and every requested
// checkpoint.
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
		// The pass's heap is the detailed system's 256 MiB; an input
		// whose viewports ask for more than 8 MiB of surfaces is skipped,
		// so no input makes a fuzz worker clear more than that.
		var surfaces uint64
		for _, op := range tr.Ops {
			if op.Name == "Viewport" && len(op.Args) >= 2 {
				surfaces += uint64(op.Args[0]) * uint64(op.Args[1]) * 8
			}
		}
		if surfaces > 8<<20 {
			return
		}
		frames := tr.FrameCount()
		at := []int{0, frames / 2, frames - 1}
		res, err := Pass(tr, PassConfig{CheckpointAt: at})
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
