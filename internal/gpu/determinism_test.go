package gpu

import (
	"testing"

	"emerald/internal/raster"
	"emerald/internal/shader"
)

// TestRenderDeterminism: two fresh systems rendering the same frame must
// agree bit-for-bit on the framebuffer AND cycle-for-cycle on timing —
// the property that makes the simulator usable for A/B architecture
// studies.
func TestRenderDeterminism(t *testing.T) {
	render := func() (uint64, [16]uint32) {
		s := testStandalone()
		const vp = 48
		clearTargets(s, vp, 0)
		uploadIdentityUniforms(s, [4]float32{0, 0, 1, 0}, 1)
		idx := uploadQuad(s, 0)
		call := quadCall(s, idx, shader.FSTexturedEarlyZ, vp)
		cycles, err := renderDraw(s, call, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var probe [16]uint32
		for i := range probe {
			probe[i] = call.Color.ReadPixel(s.Mem(), (i*7)%vp, (i*11)%vp)
		}
		return cycles, probe
	}
	c1, p1 := render()
	c2, p2 := render()
	if c1 != c2 {
		t.Fatalf("cycle counts differ: %d vs %d", c1, c2)
	}
	if p1 != p2 {
		t.Fatalf("framebuffers differ: %v vs %v", p1, p2)
	}
}

// TestTopologyEquivalence: the same quad drawn as a triangle list, strip
// and fan must produce identical framebuffers (different vertex-warp
// batching, §3.3.3, same pixels).
func TestTopologyEquivalence(t *testing.T) {
	render := func(mode raster.PrimMode, indices []uint32) []uint32 {
		s := testStandalone()
		const vp = 48
		clearTargets(s, vp, 0)
		uploadIdentityUniforms(s, [4]float32{1, 0.5, 0, 1}, 1)
		uploadQuad(s, 0)
		call := quadCall(s, indices, shader.FSFlat, vp)
		call.Mode = mode
		if _, err := renderDraw(s, call, 5_000_000); err != nil {
			t.Fatal(err)
		}
		out := make([]uint32, 0, vp*vp)
		for y := 0; y < vp; y++ {
			for x := 0; x < vp; x++ {
				out = append(out, call.Color.ReadPixel(s.Mem(), x, y))
			}
		}
		return out
	}
	list := render(raster.Triangles, []uint32{0, 1, 2, 0, 2, 3})
	strip := render(raster.TriangleStrip, []uint32{1, 2, 0, 3})
	fan := render(raster.TriangleFan, []uint32{0, 1, 2, 3})
	for i := range list {
		if list[i] != strip[i] {
			t.Fatalf("pixel %d: list %#x != strip %#x", i, list[i], strip[i])
		}
		if list[i] != fan[i] {
			t.Fatalf("pixel %d: list %#x != fan %#x", i, list[i], fan[i])
		}
	}
}
