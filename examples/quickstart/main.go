// Quickstart: render one textured, lit frame on the standalone Emerald
// GPU (paper Table 7 configuration) through the GL-like API, then print
// the frame time and an ASCII rendering of the framebuffer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"emerald"
)

func main() {
	// Build the Table 7 GPU over 4-channel LPDDR3-1600 and a GL context.
	sys := emerald.NewStandaloneGPU(nil)
	ctx := emerald.NewGL(sys)

	const w, h = 96, 64
	if err := ctx.Viewport(w, h); err != nil {
		log.Fatal(err)
	}
	if err := ctx.UseProgram(emerald.VSTransform, emerald.FSTexturedEarlyZ); err != nil {
		log.Fatal(err)
	}
	ctx.SetLight(emerald.V3(0.4, 0.5, 0.8))

	// The W6 teapot workload bundles a mesh, texture and camera path.
	scene, err := emerald.DFSLWorkload(emerald.W6Teapot)
	if err != nil {
		log.Fatal(err)
	}
	tex, err := ctx.UploadTexture(scene.Texture)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.BindTexture(0, tex); err != nil {
		log.Fatal(err)
	}
	mesh, err := ctx.UploadMesh(scene.Mesh)
	if err != nil {
		log.Fatal(err)
	}

	// Render frame 0.
	ctx.Clear(0xFF101020, true)
	ctx.SetMVP(scene.MVP(0, float32(w)/float32(h)))
	if err := ctx.DrawMesh(mesh); err != nil {
		log.Fatal(err)
	}
	cycles, err := sys.RunUntilIdle(2_000_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered %s in %d GPU cycles (%d fragments, %d triangles)\n\n",
		scene.Name, cycles, sys.GPU.FragsShaded(), scene.Mesh.TriangleCount())

	// ASCII framebuffer: luminance ramp.
	ramp := []byte(" .:-=+*#%@")
	fb := ctx.ColorSurface()
	for y := 0; y < h; y += 2 {
		line := make([]byte, w)
		for x := 0; x < w; x++ {
			px := fb.ReadPixel(sys.Mem(), x, y)
			r, g, b := px&0xFF, px>>8&0xFF, px>>16&0xFF
			lum := (299*r + 587*g + 114*b) / 1000
			line[x] = ramp[int(lum)*(len(ramp)-1)/255]
		}
		fmt.Println(string(line))
	}
}
