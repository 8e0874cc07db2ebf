// DFSL example (paper Case Study II): render a frame sequence while the
// dynamic fragment-shading load balancer explores work-tile sizes and
// locks onto the best one, exploiting frame-to-frame temporal coherence.
//
//	go run ./examples/dfsl
package main

import (
	"fmt"
	"log"

	"emerald"
)

func main() {
	sys := emerald.NewStandaloneGPU(nil)
	ctx := emerald.NewGL(sys)

	const w, h = 128, 96
	scene, err := emerald.DFSLWorkload(emerald.W1Sibenik)
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

	// DFSL: evaluate WT 1..5 over 5 frames, then run 6 frames at the
	// winner, repeating (paper Algorithm 1, scaled down).
	ctrl := emerald.NewDFSL(1, 5, 6)
	aspect := float32(w) / float32(h)
	fmt.Printf("rendering %s with DFSL (eval WT 1..5, run 6)\n", scene.Name)
	for frame := 0; frame < 14; frame++ {
		wt := ctrl.NextWT()
		phase := "run "
		if ctrl.Evaluating() {
			phase = "eval"
		}
		sys.GPU.SetWT(wt)
		ctx.Clear(0xFF0A0A14, true)
		ctx.SetMVP(scene.MVP(frame, aspect))
		if err := ctx.DrawMesh(mesh); err != nil {
			log.Fatal(err)
		}
		start := sys.Cycle()
		if _, err := sys.RunUntilIdle(2_000_000_000); err != nil {
			log.Fatal(err)
		}
		cycles := sys.Cycle() - start
		ctrl.ObserveFrame(cycles)
		fmt.Printf("frame %2d [%s] WT=%d: %8d cycles\n", frame, phase, wt, cycles)
	}
	fmt.Printf("DFSL settled on WT=%d\n", ctrl.BestWT())
}
