package shader

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// laneValues are the operand bit patterns a lane loop could get wrong
// if it computed in the wrong type or reordered an operation: NaNs with
// payloads (quiet, signalling, negative), signed zeros, infinities,
// denormals, integer extremes and shift counts past 31.
var laneValues = []uint32{
	0x7FC00000, 0x7FC12345, 0x7F800001, 0xFFC00001, // NaNs
	0x00000000, 0x80000000, // +0, -0
	0x7F800000, 0xFF800000, // +Inf, -Inf
	0x00000001, 0x807FFFFF, 0x00400000, // denormals
	0x7FFFFFFF, 0xFFFFFFFF, 0x80000001, 33, 31, 255, 256,
	math.Float32bits(1), math.Float32bits(-1.5), math.Float32bits(0.5), math.Float32bits(1e30), math.Float32bits(255.49),
}

func laneValue(rng *rand.Rand) uint32 {
	if rng.Intn(3) == 0 {
		return rng.Uint32()
	}
	return laneValues[rng.Intn(len(laneValues))]
}

// ExecALULanes must leave every thread exactly as ExecALU, lane by
// lane, would: registers and predicates of the executing lanes, and
// nothing at all of the others. Every ALU/SFU/predicate opcode, every
// register/immediate operand form, destinations aliasing sources,
// quads at the top of the register file.
func TestExecALULanesMatchesExecALU(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	masks := []uint32{0, 1, 1 << 31, 1 << 13, ^uint32(0), 0x55555555}
	for i := 0; i < 6; i++ {
		masks = append(masks, rng.Uint32())
	}
	ops := 0
	for op := Opcode(0); op < opCount; op++ {
		if c := ClassOf(op); c != ClassALU && c != ClassSFU {
			continue
		}
		ops++
		for form := 0; form < 8; form++ {
			for _, regs := range [][4]uint8{{3, 1, 2, 4}, {1, 1, 2, 4}, {2, 1, 2, 2}, {60, 60, 63, 0}, {7, 60, 7, 7}} {
				src := func(r uint8, imm bool) Src {
					if imm {
						return Src{Imm: laneValue(rng), IsImm: true}
					}
					return R(r)
				}
				in := Instr{Op: op, Pred: -1, Dst: regs[0],
					A: src(regs[1], form&1 != 0), B: src(regs[2], form&2 != 0), C: src(regs[3], form&4 != 0),
					Cmp: Cmp(rng.Intn(6)), Slot: uint8(rng.Intn(NumPregs))}
				switch op {
				case OpSetpF, OpSetpI:
					in.Dst %= NumPregs
				case OpMovS:
					in.Slot = uint8(rng.Intn(int(SRegFZ) + 2)) // one past the last: reads 0
				case OpPack4:
					in.A.Reg = min(in.A.Reg, NumRegs-4) // as validate requires
				}
				for _, mask := range masks {
					var want, got [32]Thread
					var sp [32]Special
					for l := range want {
						for r := range want[l].Regs {
							want[l].Regs[r] = laneValue(rng)
						}
						for p := range want[l].Pregs {
							want[l].Pregs[p] = rng.Intn(2) == 0
						}
						sp[l] = Special{TID: rng.Uint32(), CTAID: rng.Uint32(), NTID: rng.Uint32(), PX: rng.Uint32(),
							PY: rng.Uint32(), VID: rng.Uint32(), Prim: rng.Uint32(), WID: rng.Uint32(), FZ: laneValue(rng)}
					}
					got = want
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						ExecALU(in, &want[l], sp[l])
					}
					ExecALULanes(&in, mask, got[:], sp[:])
					for l := range want {
						if got[l] != want[l] {
							for r := range want[l].Regs {
								if got[l].Regs[r] != want[l].Regs[r] {
									t.Errorf("r%d = %#x, want %#x", r, got[l].Regs[r], want[l].Regs[r])
								}
							}
							t.Fatalf("%s (form %03b) mask %08x lane %d: lanes %v (pregs %v), reference %v",
								DisasmInstr(in), form, mask, l, got[l].Regs[in.Dst], got[l].Pregs, want[l].Pregs)
						}
					}
				}
			}
		}
	}
	if ops < 39 {
		t.Fatalf("only %d ALU/SFU opcodes exercised", ops)
	}
}
