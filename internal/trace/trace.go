// Package trace provides the API-trace record/replay and checkpointing
// infrastructure of the paper's software stack (Figure 8): the APITrace
// substitute records the GL command stream to a binary file; the
// replayer reconstructs it against a fresh context (optionally only a
// region of interest — specific frames or draws); checkpointing captures
// GL state plus simulated memory so long simulations can resume, as
// gem5-emerald's graphics checkpointing does (§4.2).
package trace

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"emerald/internal/gfx"
	"emerald/internal/gl"
	"emerald/internal/mathx"
	"emerald/internal/raster"
	"emerald/internal/shader"
)

// Op is one recorded API call.
type Op struct {
	Name string
	Args []uint32
	Blob []byte
}

// Trace is a recorded API stream. It implements gl.Recorder.
type Trace struct {
	Ops []Op
}

// Op implements gl.Recorder.
func (t *Trace) Op(name string, args []uint32, blob []byte) {
	// Copy: callers may reuse backing arrays.
	a := append([]uint32(nil), args...)
	b := append([]byte(nil), blob...)
	t.Ops = append(t.Ops, Op{Name: name, Args: a, Blob: b})
}

// Len returns the number of recorded ops.
func (t *Trace) Len() int { return len(t.Ops) }

// DrawCount returns the number of recorded draw calls.
func (t *Trace) DrawCount() int {
	n := 0
	for _, op := range t.Ops {
		if op.Name == "DrawElements" {
			n++
		}
	}
	return n
}

// Save writes the trace in its binary format.
func (t *Trace) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(t)
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &t, nil
}

// ReplayOptions selects a region of interest.
type ReplayOptions struct {
	// FirstDraw/LastDraw bound the draw calls executed (0-indexed,
	// inclusive); LastDraw < 0 means "to the end". State-building ops are
	// always applied so skipped draws leave correct state behind.
	FirstDraw, LastDraw int
	// OnFrameEnd, when non-nil, is invoked at every FrameEnd op with
	// the 0-indexed frame just finished — the hook where callers drain
	// the simulated GPU, snapshot signatures, take checkpoints, or
	// restore one. Returning ErrStop ends the replay cleanly; any other
	// error aborts it.
	OnFrameEnd func(frame int) error
}

// ErrStop, returned from an OnFrameEnd hook, stops the replay without
// error — region executors use it to avoid walking ops past their last
// frame of interest.
var ErrStop = errors.New("trace: stop replay")

// ReplayAll replays every op.
func ReplayAll() ReplayOptions { return ReplayOptions{FirstDraw: 0, LastDraw: -1} }

// Replay applies the trace to a context. Object names recorded in the
// trace are remapped to the names the fresh context allocates.
func Replay(t *Trace, ctx *gl.Context, opt ReplayOptions) error {
	bufMap := map[uint32]uint32{}
	texMap := map[uint32]uint32{}
	draw, frame := 0, 0
	for i, op := range t.Ops {
		err := replayOp(op, ctx, bufMap, texMap, &draw, &frame, opt)
		if errors.Is(err, ErrStop) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: op %d (%s): %w", i, op.Name, err)
		}
	}
	return nil
}

// FrameCount returns the number of FrameEnd markers in the trace.
func (t *Trace) FrameCount() int { return len(t.FrameDraws()) }

// FrameDraws returns, per frame, the half-open range [first, next) of
// global draw indices recorded inside it — the draw gate a region
// replay needs to run only selected frames in detail. Draws after the
// last FrameEnd marker are not attributed to any frame.
func (t *Trace) FrameDraws() [][2]int {
	var out [][2]int
	draw, first := 0, 0
	for _, op := range t.Ops {
		switch op.Name {
		case "DrawElements":
			draw++
		case "FrameEnd":
			out = append(out, [2]int{first, draw})
			first = draw
		}
	}
	return out
}

func replayOp(op Op, ctx *gl.Context, bufMap, texMap map[uint32]uint32, draw, frame *int, opt ReplayOptions) error {
	argAt := func(i int) uint32 {
		if i < len(op.Args) {
			return op.Args[i]
		}
		return 0
	}
	switch op.Name {
	case "GenBuffer":
		bufMap[argAt(0)] = ctx.GenBuffer()
	case "BufferData":
		return ctx.BufferData(bufMap[argAt(0)], op.Blob)
	case "GenTexture":
		texMap[argAt(0)] = ctx.GenTexture()
	case "TexImage2D":
		return ctx.TexImage2D(texMap[argAt(0)], int(argAt(1)), int(argAt(2)), op.Blob)
	case "BindTexture":
		return ctx.BindTexture(int(argAt(0)), texMap[argAt(1)])
	case "TexFilterBilinear":
		return ctx.TexFilterBilinear(texMap[argAt(0)], argAt(1) != 0)
	case "UseProgram":
		parts := strings.SplitN(string(op.Blob), "\x00", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad UseProgram blob")
		}
		vs, fs := shader.ByName(parts[0]), shader.ByName(parts[1])
		if vs == nil || fs == nil {
			return fmt.Errorf("unknown shader %q/%q", parts[0], parts[1])
		}
		return ctx.UseProgram(vs, fs)
	case "BindArrayBuffer":
		if len(op.Args) < 2 {
			return fmt.Errorf("short BindArrayBuffer")
		}
		var attrs [][2]uint32
		for i := 2; i+1 < len(op.Args); i += 2 {
			attrs = append(attrs, [2]uint32{op.Args[i], op.Args[i+1]})
		}
		return ctx.BindArrayBuffer(bufMap[argAt(0)], argAt(1), attrs)
	case "Enable":
		ctx.Enable(gl.Capability(argAt(0)))
	case "Disable":
		ctx.Disable(gl.Capability(argAt(0)))
	case "DepthMask":
		ctx.DepthMask(argAt(0) != 0)
	case "Viewport":
		return ctx.Viewport(int(argAt(0)), int(argAt(1)))
	case "BindSurfaces":
		// External surfaces bypass the context's heap, so nothing but
		// this check bounds what a Clear of them touches.
		if argAt(2) > gl.MaxSurfaceDim || argAt(3) > gl.MaxSurfaceDim {
			return fmt.Errorf("surface %dx%d larger than %d", argAt(2), argAt(3), gl.MaxSurfaceDim)
		}
		color := gfx.Surface{
			Base:  uint64(argAt(0)) | uint64(argAt(1))<<32,
			Width: int(argAt(2)), Height: int(argAt(3)),
		}
		depth := gfx.Surface{
			Base:  uint64(argAt(4)) | uint64(argAt(5))<<32,
			Width: int(argAt(2)), Height: int(argAt(3)),
		}
		ctx.BindSurfaces(color, depth)
	case "SetMVP":
		if len(op.Blob) != 64 {
			return fmt.Errorf("bad SetMVP blob")
		}
		var m mathx.Mat4
		for i := range m {
			bits := uint32(op.Blob[i*4]) | uint32(op.Blob[i*4+1])<<8 |
				uint32(op.Blob[i*4+2])<<16 | uint32(op.Blob[i*4+3])<<24
			m[i] = math.Float32frombits(bits)
		}
		ctx.SetMVP(m)
	case "SetLight":
		ctx.SetLight(mathx.V3(
			math.Float32frombits(argAt(0)),
			math.Float32frombits(argAt(1)),
			math.Float32frombits(argAt(2))))
	case "SetFlatColor":
		ctx.SetFlatColor(
			math.Float32frombits(argAt(0)),
			math.Float32frombits(argAt(1)),
			math.Float32frombits(argAt(2)),
			math.Float32frombits(argAt(3)))
	case "SetAlpha":
		ctx.SetAlpha(math.Float32frombits(argAt(0)))
	case "Clear":
		ctx.Clear(argAt(0), argAt(1) != 0)
	case "FrameEnd":
		f := *frame
		*frame++
		if opt.OnFrameEnd != nil {
			return opt.OnFrameEnd(f)
		}
	case "DrawElements":
		idx := *draw
		*draw++
		if idx < opt.FirstDraw || (opt.LastDraw >= 0 && idx > opt.LastDraw) {
			return nil // outside the region of interest
		}
		indices := make([]uint32, len(op.Blob)/4)
		for i := range indices {
			indices[i] = uint32(op.Blob[i*4]) | uint32(op.Blob[i*4+1])<<8 |
				uint32(op.Blob[i*4+2])<<16 | uint32(op.Blob[i*4+3])<<24
		}
		return ctx.DrawElements(raster.PrimMode(argAt(0)), indices)
	default:
		return fmt.Errorf("unknown op %q", op.Name)
	}
	return nil
}
