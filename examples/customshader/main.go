// Custom shader example: write your own EIR fragment shader (a
// procedural UV-space pattern with early-Z), assemble it at runtime,
// and run it through the full pipeline — the workflow the paper's
// TGSItoPTX compiler enables for arbitrary GLSL.
//
//	go run ./examples/customshader
package main

import (
	"fmt"
	"log"

	"emerald"
	"emerald/internal/mathx"
	"emerald/internal/shader"
)

// A fragment shader computing a procedural ring pattern from the UV
// varyings: color = |sin(12 * length(uv - 0.5))| in red/blue.
const ringsFS = `
	; early depth test
	movs r20, %fz
	zld  r21
	setp.ge.f p3, r20, r21
	@p3 kill

	attr4 r4, 2          ; uv varying
	sub  r6, r4, 0.5     ; u - 0.5
	sub  r7, r5, 0.5     ; v - 0.5
	mul  r8, r6, r6
	mad  r8, r7, r7, r8
	sqrt r9, r8          ; radius
	mul  r10, r9, 12.0
	sin  r11, r10
	abs  r11, r11        ; ring intensity

	mov  r12, r11        ; red   = rings
	mov  r13, 0.15       ; green = constant
	mov  r14, 1.0
	sub  r14, r14, r11   ; blue  = inverse rings
	mov  r15, 1.0        ; alpha

	pack4 r16, r12
	fbst  r16
	zst   r20
	exit
`

func main() {
	fs, err := emerald.AssembleShader("fs_rings", emerald.KindFragment, ringsFS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %s\n", fs)
	fmt.Println(shader.Disassemble(fs))

	sys := emerald.NewStandaloneGPU(nil)
	ctx := emerald.NewGL(sys)
	const w, h = 72, 48
	if err := ctx.Viewport(w, h); err != nil {
		log.Fatal(err)
	}
	if err := ctx.UseProgram(emerald.VSTransform, fs); err != nil {
		log.Fatal(err)
	}

	// A full-screen quad with UVs spanning [0,1].
	quad := &emerald.Mesh{}
	quad.Positions = []emerald.Vec3{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: 1, Y: 1}, {X: -1, Y: 1}}
	quad.Normals = []emerald.Vec3{{Z: 1}, {Z: 1}, {Z: 1}, {Z: 1}}
	quad.UVs = []mathx.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	quad.Indices = []uint32{0, 1, 2, 0, 2, 3}

	mesh, err := ctx.UploadMesh(quad)
	if err != nil {
		log.Fatal(err)
	}
	ctx.Clear(0xFF000000, true)
	if err := ctx.DrawMesh(mesh); err != nil {
		log.Fatal(err)
	}
	cycles, err := sys.RunUntilIdle(1_000_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered rings in %d cycles\n\n", cycles)

	ramp := []byte(" .:-=+*#%@")
	fb := ctx.ColorSurface()
	for y := 0; y < h; y += 2 {
		line := make([]byte, w)
		for x := 0; x < w; x++ {
			px := fb.ReadPixel(sys.Mem(), x, y)
			line[x] = ramp[int(px&0xFF)*(len(ramp)-1)/255] // red channel
		}
		fmt.Println(string(line))
	}
}
