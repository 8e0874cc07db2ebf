package shader

import (
	"math"
	"math/bits"
)

// Thread is the architectural state of one scalar thread: 64 general
// registers holding raw 32-bit values and 4 predicate registers.
type Thread struct {
	Regs  [NumRegs]uint32
	Pregs [NumPregs]bool
}

// F reads a source as float32.
func (t *Thread) F(s Src) float32 {
	return math.Float32frombits(t.U(s))
}

// U reads a source as raw uint32.
func (t *Thread) U(s Src) uint32 {
	if s.IsImm {
		return s.Imm
	}
	return t.Regs[s.Reg]
}

// I reads a source as int32.
func (t *Thread) I(s Src) int32 { return int32(t.U(s)) }

// SetF writes a float32 to register r.
func (t *Thread) SetF(r uint8, v float32) { t.Regs[r] = math.Float32bits(v) }

// SetU writes a raw value to register r.
func (t *Thread) SetU(r uint8, v uint32) { t.Regs[r] = v }

// Special carries the per-thread special-register values supplied by the
// launching hardware (vertex batcher, tile coalescer, kernel dispatcher).
type Special struct {
	TID, CTAID, NTID uint32
	PX, PY           uint32
	VID, Prim        uint32
	WID              uint32
	FZ               uint32 // fragment depth as float32 bits
}

func (s *Special) read(r SReg) uint32 {
	switch r {
	case SRegTID:
		return s.TID
	case SRegCTAID:
		return s.CTAID
	case SRegNTID:
		return s.NTID
	case SRegPX:
		return s.PX
	case SRegPY:
		return s.PY
	case SRegVID:
		return s.VID
	case SRegPRIM:
		return s.Prim
	case SRegWID:
		return s.WID
	case SRegFZ:
		return s.FZ
	}
	return 0
}

// Active reports whether the instruction's guard predicate passes for t.
func Active(in *Instr, t *Thread) bool {
	if in.Pred < 0 {
		return true
	}
	v := t.Pregs[in.Pred]
	if in.Neg {
		return !v
	}
	return v
}

// EA computes the effective address of a memory instruction for t.
func EA(in *Instr, t *Thread) uint64 {
	base := uint64(t.U(in.B))
	return uint64(int64(base) + int64(in.Off))
}

// ExecALU functionally executes an ALU/SFU/predicate instruction for one
// thread. Memory, texture, graphics-I/O and control instructions are
// handled by the SIMT core (they need the memory system or warp state).
func ExecALU(in Instr, t *Thread, sp Special) { execALU(&in, t, &sp) }

// ExecALULanes is ExecALU for every lane whose bit is set in lanes:
// thread i runs with specials[i]. The warp executors call this rather
// than ExecALU per lane: the opcode is dispatched once per warp
// instruction, each opcode's lane loop holds its operands in locals,
// and nothing is copied per lane. ExecALU stays the reference the lane
// loops are tested against.
func ExecALULanes(in *Instr, lanes uint32, threads []Thread, specials []Special) {
	a, b, c, d := in.A, in.B, in.C, in.Dst
	switch in.Op {
	case OpNop:
	case OpFMov:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return x })
	case OpFAdd:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return fb(ff(x) + ff(y)) })
	case OpFSub:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return fb(ff(x) - ff(y)) })
	case OpFMul:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return fb(ff(x) * ff(y)) })
	case OpFDiv:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return fb(ff(x) / ff(y)) })
	case OpFMin:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return fb(fmin(ff(x), ff(y))) })
	case OpFMax:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return fb(fmax(ff(x), ff(y))) })
	case OpFMad:
		for ; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			t.Regs[d] = fb(ff(t.U(a))*ff(t.U(b)) + ff(t.U(c)))
		}
	case OpFAbs:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Abs(float64(ff(x))))) })
	case OpFNeg:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(-ff(x)) })
	case OpFFlr:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Floor(float64(ff(x))))) })
	case OpFFrc:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(float64(ff(x)) - math.Floor(float64(ff(x))))) })
	case OpFRcp:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(1 / ff(x)) })
	case OpFRsq:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(1 / math.Sqrt(float64(ff(x))))) })
	case OpFSqrt:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Sqrt(float64(ff(x))))) })
	case OpFSin:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Sin(float64(ff(x))))) })
	case OpFCos:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Cos(float64(ff(x))))) })
	case OpFEx2:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Exp2(float64(ff(x))))) })
	case OpFLg2:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(math.Log2(float64(ff(x))))) })
	case OpIAdd:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x + y })
	case OpISub:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x - y })
	case OpIMul:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x * y })
	case OpIMad:
		for ; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			t.Regs[d] = t.U(a)*t.U(b) + t.U(c)
		}
	case OpIMin:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return uint32(imin(int32(x), int32(y))) })
	case OpIMax:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return uint32(imax(int32(x), int32(y))) })
	case OpIAnd:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x & y })
	case OpIOr:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x | y })
	case OpIXor:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x ^ y })
	case OpIShl:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x << (y & 31) })
	case OpIShr:
		lanes2(lanes, threads, d, a, b, func(x, y uint32) uint32 { return x >> (y & 31) })
	case OpCvtFI:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return uint32(int32(ff(x))) })
	case OpCvtIF:
		lanes1(lanes, threads, d, a, func(x uint32) uint32 { return fb(float32(int32(x))) })
	case OpSetpF:
		for cmp := in.Cmp; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			t.Pregs[d] = compareF(cmp, t.F(a), t.F(b))
		}
	case OpSetpI:
		for cmp := in.Cmp; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			t.Pregs[d] = compareI(cmp, t.I(a), t.I(b))
		}
	case OpSelp:
		for p := in.Slot; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			if t.Pregs[p] {
				t.Regs[d] = t.U(a)
			} else {
				t.Regs[d] = t.U(b)
			}
		}
	case OpMovS:
		for r := SReg(in.Slot); lanes != 0; lanes &= lanes - 1 {
			i := bits.TrailingZeros32(lanes)
			threads[i].Regs[d] = specials[i].read(r)
		}
	case OpPack4:
		for r := a.Reg; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			t.Regs[d] = PackRGBA8(ff(t.Regs[r]), ff(t.Regs[r+1]), ff(t.Regs[r+2]), ff(t.Regs[r+3]))
		}
	case OpUnpk4:
		for ; lanes != 0; lanes &= lanes - 1 {
			t := &threads[bits.TrailingZeros32(lanes)]
			r, g, b, a := UnpackRGBA8(t.U(a))
			t.Regs[d], t.Regs[d+1], t.Regs[d+2], t.Regs[d+3] = fb(r), fb(g), fb(b), fb(a)
		}
	}
}

func ff(x uint32) float32 { return math.Float32frombits(x) }
func fb(x float32) uint32 { return math.Float32bits(x) }

// lanes1 and lanes2 run one- and two-source lane loops. They are small
// enough to inline into ExecALULanes, which turns f into a direct,
// inlined call: each opcode gets its own loop. (A three-source helper
// is past the inliner's budget, so mad and imad spell their loops out.)
func lanes1(lanes uint32, threads []Thread, d uint8, a Src, f func(x uint32) uint32) {
	for ; lanes != 0; lanes &= lanes - 1 {
		t := &threads[bits.TrailingZeros32(lanes)]
		t.Regs[d] = f(t.U(a))
	}
}

func lanes2(lanes uint32, threads []Thread, d uint8, a, b Src, f func(x, y uint32) uint32) {
	for ; lanes != 0; lanes &= lanes - 1 {
		t := &threads[bits.TrailingZeros32(lanes)]
		t.Regs[d] = f(t.U(a), t.U(b))
	}
}

func execALU(in *Instr, t *Thread, sp *Special) {
	switch in.Op {
	case OpNop:
	case OpFMov:
		t.SetU(in.Dst, t.U(in.A))
	case OpFAdd:
		t.SetF(in.Dst, t.F(in.A)+t.F(in.B))
	case OpFSub:
		t.SetF(in.Dst, t.F(in.A)-t.F(in.B))
	case OpFMul:
		t.SetF(in.Dst, t.F(in.A)*t.F(in.B))
	case OpFDiv:
		t.SetF(in.Dst, t.F(in.A)/t.F(in.B))
	case OpFMin:
		t.SetF(in.Dst, fmin(t.F(in.A), t.F(in.B)))
	case OpFMax:
		t.SetF(in.Dst, fmax(t.F(in.A), t.F(in.B)))
	case OpFMad:
		t.SetF(in.Dst, t.F(in.A)*t.F(in.B)+t.F(in.C))
	case OpFAbs:
		t.SetF(in.Dst, float32(math.Abs(float64(t.F(in.A)))))
	case OpFNeg:
		t.SetF(in.Dst, -t.F(in.A))
	case OpFFlr:
		t.SetF(in.Dst, float32(math.Floor(float64(t.F(in.A)))))
	case OpFFrc:
		f := float64(t.F(in.A))
		t.SetF(in.Dst, float32(f-math.Floor(f)))
	case OpFRcp:
		t.SetF(in.Dst, 1/t.F(in.A))
	case OpFRsq:
		t.SetF(in.Dst, float32(1/math.Sqrt(float64(t.F(in.A)))))
	case OpFSqrt:
		t.SetF(in.Dst, float32(math.Sqrt(float64(t.F(in.A)))))
	case OpFSin:
		t.SetF(in.Dst, float32(math.Sin(float64(t.F(in.A)))))
	case OpFCos:
		t.SetF(in.Dst, float32(math.Cos(float64(t.F(in.A)))))
	case OpFEx2:
		t.SetF(in.Dst, float32(math.Exp2(float64(t.F(in.A)))))
	case OpFLg2:
		t.SetF(in.Dst, float32(math.Log2(float64(t.F(in.A)))))

	case OpIAdd:
		t.SetU(in.Dst, uint32(t.I(in.A)+t.I(in.B)))
	case OpISub:
		t.SetU(in.Dst, uint32(t.I(in.A)-t.I(in.B)))
	case OpIMul:
		t.SetU(in.Dst, uint32(t.I(in.A)*t.I(in.B)))
	case OpIMad:
		t.SetU(in.Dst, uint32(t.I(in.A)*t.I(in.B)+t.I(in.C)))
	case OpIMin:
		t.SetU(in.Dst, uint32(imin(t.I(in.A), t.I(in.B))))
	case OpIMax:
		t.SetU(in.Dst, uint32(imax(t.I(in.A), t.I(in.B))))
	case OpIAnd:
		t.SetU(in.Dst, t.U(in.A)&t.U(in.B))
	case OpIOr:
		t.SetU(in.Dst, t.U(in.A)|t.U(in.B))
	case OpIXor:
		t.SetU(in.Dst, t.U(in.A)^t.U(in.B))
	case OpIShl:
		t.SetU(in.Dst, t.U(in.A)<<(t.U(in.B)&31))
	case OpIShr:
		t.SetU(in.Dst, t.U(in.A)>>(t.U(in.B)&31))
	case OpCvtFI:
		t.SetU(in.Dst, uint32(int32(t.F(in.A))))
	case OpCvtIF:
		t.SetF(in.Dst, float32(t.I(in.A)))

	case OpSetpF:
		t.Pregs[in.Dst] = compareF(in.Cmp, t.F(in.A), t.F(in.B))
	case OpSetpI:
		t.Pregs[in.Dst] = compareI(in.Cmp, t.I(in.A), t.I(in.B))
	case OpSelp:
		if t.Pregs[in.Slot] {
			t.SetU(in.Dst, t.U(in.A))
		} else {
			t.SetU(in.Dst, t.U(in.B))
		}

	case OpMovS:
		t.SetU(in.Dst, sp.read(SReg(in.Slot)))

	case OpPack4:
		r := in.A.Reg
		t.SetU(in.Dst, PackRGBA8(
			math.Float32frombits(t.Regs[r]),
			math.Float32frombits(t.Regs[r+1]),
			math.Float32frombits(t.Regs[r+2]),
			math.Float32frombits(t.Regs[r+3])))
	case OpUnpk4:
		c := t.U(in.A)
		r, g, b, a := UnpackRGBA8(c)
		t.SetF(in.Dst, r)
		t.SetF(in.Dst+1, g)
		t.SetF(in.Dst+2, b)
		t.SetF(in.Dst+3, a)
	}
}

func compareF(c Cmp, a, b float32) bool {
	switch c {
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpEQ:
		return a == b
	}
	return a != b
}

func compareI(c Cmp, a, b int32) bool {
	switch c {
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpEQ:
		return a == b
	}
	return a != b
}

func fmin(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func imin(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func imax(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// PackRGBA8 converts float RGBA in [0,1] to a packed 8-bit-per-channel
// pixel (R in the low byte, the framebuffer's native layout).
func PackRGBA8(r, g, b, a float32) uint32 {
	return uint32(to8(r)) | uint32(to8(g))<<8 | uint32(to8(b))<<16 | uint32(to8(a))<<24
}

// UnpackRGBA8 is the inverse of PackRGBA8.
func UnpackRGBA8(c uint32) (r, g, b, a float32) {
	return float32(c&0xFF) / 255, float32(c>>8&0xFF) / 255,
		float32(c>>16&0xFF) / 255, float32(c>>24&0xFF) / 255
}

func to8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}
