// Trace example (paper §4.1/§4.2): record the GL command stream of two
// frames, replay it on a fresh GPU, and verify the framebuffers match
// bit for bit. Also demonstrates checkpointing (trace + memory snapshot).
//
//	go run ./examples/trace
package main

import (
	"bytes"
	"fmt"
	"log"

	"emerald"
	"emerald/internal/trace"
)

func main() {
	// --- record ---
	tr := &emerald.Trace{}
	sys1 := emerald.NewStandaloneGPU(nil)
	ctx1 := emerald.NewGL(sys1)
	ctx1.Recorder = tr
	renderTwoFrames(sys1, ctx1)
	fmt.Printf("recorded %d API ops, %d draw calls\n", tr.Len(), tr.DrawCount())

	// --- binary round trip ---
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	loaded, err := trace.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace file: %d bytes\n", size)

	// --- replay on a fresh system ---
	sys2 := emerald.NewStandaloneGPU(nil)
	ctx2 := emerald.NewGL(sys2)
	if err := trace.Replay(loaded, ctx2, trace.ReplayAll()); err != nil {
		log.Fatal(err)
	}
	if _, err := sys2.RunUntilIdle(4_000_000_000); err != nil {
		log.Fatal(err)
	}

	// --- verify pixel equality ---
	fb1, fb2 := ctx1.ColorSurface(), ctx2.ColorSurface()
	diffs := 0
	for y := 0; y < fb1.Height; y++ {
		for x := 0; x < fb1.Width; x++ {
			if fb1.ReadPixel(sys1.Mem(), x, y) != fb2.ReadPixel(sys2.Mem(), x, y) {
				diffs++
			}
		}
	}
	fmt.Printf("record/replay framebuffer comparison: %d differing pixels\n", diffs)
	if diffs != 0 {
		log.Fatal("record/replay mismatch")
	}

	// --- checkpoint ---
	cp := trace.NewCheckpoint(tr, sys1.Mem(), sys1.Cycle(), 2)
	raw, err := cp.Bytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %d bytes (trace + %d memory pages), cycle %d, frame %d\n",
		len(raw), len(cp.Pages), cp.Cycle, cp.Frame)
}

func renderTwoFrames(sys *emerald.StandaloneGPU, ctx *emerald.GL) {
	const w, h = 96, 72
	scene, err := emerald.DFSLWorkload(emerald.W2Spot)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.Viewport(w, h); err != nil {
		log.Fatal(err)
	}
	mesh, err := ctx.LoadScene(scene)
	if err != nil {
		log.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		ctx.Clear(0xFF101020, true)
		ctx.SetMVP(scene.MVP(f, float32(w)/float32(h)))
		if err := ctx.DrawMesh(mesh); err != nil {
			log.Fatal(err)
		}
		if _, err := sys.RunUntilIdle(2_000_000_000); err != nil {
			log.Fatal(err)
		}
		ctx.FrameEnd()
	}
}
