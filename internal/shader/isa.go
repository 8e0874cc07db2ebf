// Package shader defines EIR, the PTX-like scalar ISA that Emerald-Go's
// unified SIMT cores execute for vertex, fragment and compute work. It
// mirrors the role of the paper's TGSItoPTX output: shaders are real
// programs, assembled from text, interpreted per-thread on the timing
// model (with graphics-specific instructions for attribute I/O, texture
// sampling and in-shader raster operations, as the paper adds to
// GPGPU-Sim's ISA).
package shader

import (
	"fmt"
	"strings"
)

// Opcode enumerates EIR instructions. opTable gives each one's
// mnemonic, operands, class and destination.
type Opcode uint8

// Opcodes.
const (
	OpNop Opcode = iota

	// Float arithmetic (registers hold raw 32-bit values; f-ops treat
	// them as float32).
	OpFMov
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMin
	OpFMax
	OpFMad
	OpFAbs
	OpFNeg
	OpFFlr
	OpFFrc
	OpFRcp
	OpFRsq
	OpFSqrt
	OpFSin
	OpFCos
	OpFEx2
	OpFLg2

	// Integer/bitwise (treat raw bits as int32/uint32).
	OpIAdd
	OpISub
	OpIMul
	OpIMad
	OpIMin
	OpIMax
	OpIAnd
	OpIOr
	OpIXor
	OpIShl
	OpIShr
	OpCvtFI
	OpCvtIF

	// Predicates.
	OpSetpF
	OpSetpI
	OpSelp

	// Control flow.
	OpBra
	OpSSY
	OpExit
	OpKill
	OpBar

	// Special registers.
	OpMovS

	// Memory.
	OpLdGlobal
	OpStGlobal
	OpLdShared
	OpStShared
	OpLdConst
	OpAtomAdd

	// Graphics.
	OpAttr4
	OpOut4
	OpTex4
	OpZLd
	OpZSt
	OpFBLd
	OpFBSt
	OpPack4
	OpUnpk4

	opCount
)

// opInfo is everything the assembler, the disassembler and the issue
// path know of one opcode.
type opInfo struct {
	name string // mnemonic; setp's gains its comparison in the text: setp.<cmp>.f
	// form has one letter per operand, in assembly order:
	//	d  destination register rd          P  destination predicate pd
	//	a  source a: register or immediate  A  a, read as the quad a..a+3
	//	b  source b                         c  source c
	//	p  predicate operand (into Slot)    m  memory operand [rN+off] or [off]
	//	L  label (into Target)              s  special register %name (Slot)
	//	S  slot or texture unit 0..255 (Slot)
	form  string
	isInt bool // immediates carry int32 bits, not float32
	class Class
	dst   uint8 // general registers written from rd: 0, 1 or 4
}

var opTable = [opCount]opInfo{
	OpNop:   {"nop", "", false, ClassALU, 0},
	OpFMov:  {"mov", "da", false, ClassALU, 1},
	OpFAdd:  {"add", "dab", false, ClassALU, 1},
	OpFSub:  {"sub", "dab", false, ClassALU, 1},
	OpFMul:  {"mul", "dab", false, ClassALU, 1},
	OpFDiv:  {"div", "dab", false, ClassALU, 1},
	OpFMin:  {"min", "dab", false, ClassALU, 1},
	OpFMax:  {"max", "dab", false, ClassALU, 1},
	OpFMad:  {"mad", "dabc", false, ClassALU, 1},
	OpFAbs:  {"abs", "da", false, ClassALU, 1},
	OpFNeg:  {"neg", "da", false, ClassALU, 1},
	OpFFlr:  {"flr", "da", false, ClassALU, 1},
	OpFFrc:  {"frc", "da", false, ClassALU, 1},
	OpFRcp:  {"rcp", "da", false, ClassSFU, 1},
	OpFRsq:  {"rsq", "da", false, ClassSFU, 1},
	OpFSqrt: {"sqrt", "da", false, ClassSFU, 1},
	OpFSin:  {"sin", "da", false, ClassSFU, 1},
	OpFCos:  {"cos", "da", false, ClassSFU, 1},
	OpFEx2:  {"ex2", "da", false, ClassSFU, 1},
	OpFLg2:  {"lg2", "da", false, ClassSFU, 1},

	OpIAdd:  {"iadd", "dab", true, ClassALU, 1},
	OpISub:  {"isub", "dab", true, ClassALU, 1},
	OpIMul:  {"imul", "dab", true, ClassALU, 1},
	OpIMad:  {"imad", "dabc", true, ClassALU, 1},
	OpIMin:  {"imin", "dab", true, ClassALU, 1},
	OpIMax:  {"imax", "dab", true, ClassALU, 1},
	OpIAnd:  {"and", "dab", true, ClassALU, 1},
	OpIOr:   {"or", "dab", true, ClassALU, 1},
	OpIXor:  {"xor", "dab", true, ClassALU, 1},
	OpIShl:  {"shl", "dab", true, ClassALU, 1},
	OpIShr:  {"shr", "dab", true, ClassALU, 1},     // logical
	OpCvtFI: {"cvt.f2i", "da", false, ClassALU, 1}, // truncates
	OpCvtIF: {"cvt.i2f", "da", true, ClassALU, 1},

	OpSetpF: {"setp.f", "Pab", false, ClassALU, 0},
	OpSetpI: {"setp.i", "Pab", true, ClassALU, 0},
	OpSelp:  {"selp", "dabp", false, ClassALU, 1}, // rd = p ? a : b

	OpBra:  {"bra", "L", false, ClassCtrl, 0}, // predicated for a conditional branch
	OpSSY:  {"ssy", "L", false, ClassCtrl, 0}, // reconvergence point of the next divergent bra
	OpExit: {"exit", "", false, ClassCtrl, 0},
	OpKill: {"kill", "", false, ClassCtrl, 0}, // fragment discard / thread terminate
	OpBar:  {"bar", "", false, ClassCtrl, 0},  // thread-block barrier, compute only

	OpMovS: {"movs", "ds", false, ClassALU, 1},

	OpLdGlobal: {"ldg", "dm", true, ClassMem, 1},
	OpStGlobal: {"stg", "ma", true, ClassMem, 0},
	OpLdShared: {"lds", "dm", true, ClassMem, 1},
	OpStShared: {"sts", "ma", true, ClassMem, 0},
	OpLdConst:  {"ldc", "dm", true, ClassMem, 1},
	OpAtomAdd:  {"atom.add", "dma", true, ClassMem, 1}, // via the L2 atomic unit

	OpAttr4: {"attr4", "dS", false, ClassMem, 4},  // rd..rd+3 <- input attribute vec4
	OpOut4:  {"out4", "SA", false, ClassMem, 0},   // output vec4 from a..a+3 (VS varyings)
	OpTex4:  {"tex4", "dSab", false, ClassTex, 4}, // rd..rd+3 <- RGBA sample of unit at (a, b)
	OpZLd:   {"zld", "d", false, ClassROP, 1},     // depth buffer read at the fragment's pixel
	OpZSt:   {"zst", "a", false, ClassROP, 0},     // depth buffer write
	OpFBLd:  {"fbld", "d", false, ClassROP, 1},    // framebuffer color read, packed RGBA8
	OpFBSt:  {"fbst", "A", false, ClassROP, 0},    // framebuffer color write of packed RGBA8 a, accounted as a quad
	OpPack4: {"pack4", "dA", false, ClassALU, 1},  // rd <- RGBA8 of floats a..a+3
	OpUnpk4: {"unpk4", "da", false, ClassALU, 4},  // rd..rd+3 <- floats of RGBA8 a
}

// mnemonics inverts opTable for the assembler.
var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, opCount)
	for op, info := range opTable {
		m[info.name] = Opcode(op)
	}
	return m
}()

// Cmp is the comparison operator for setp.
type Cmp uint8

// Comparison operators.
const (
	CmpLT Cmp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

func (c Cmp) String() string {
	return [...]string{"lt", "le", "gt", "ge", "eq", "ne"}[c]
}

// SReg identifies a special register readable via movs.
type SReg uint8

// Special registers.
const (
	SRegTID   SReg = iota // thread index within block / within warp task
	SRegCTAID             // block index
	SRegNTID              // threads per block
	SRegPX                // fragment pixel x (integer value)
	SRegPY                // fragment pixel y
	SRegVID               // vertex index (for VS)
	SRegPRIM              // primitive id
	SRegWID               // warp id within core
	SRegFZ                // fragment depth (float32 bits)
)

var sregNames = map[string]SReg{
	"%tid": SRegTID, "%ctaid": SRegCTAID, "%ntid": SRegNTID,
	"%px": SRegPX, "%py": SRegPY, "%vid": SRegVID, "%prim": SRegPRIM,
	"%wid": SRegWID, "%fz": SRegFZ,
}

// NumRegs is the architectural register-file size per thread.
const NumRegs = 64

// NumPregs is the number of predicate registers per thread.
const NumPregs = 4

// Src is an instruction source operand: a register or an immediate
// (raw 32-bit value; int or float interpretation depends on the opcode).
type Src struct {
	Reg   uint8
	Imm   uint32
	IsImm bool
}

// R makes a register source.
func R(i uint8) Src { return Src{Reg: i} }

// Instr is one decoded instruction.
type Instr struct {
	Op   Opcode
	Pred int8 // predicate register guarding execution; -1 = none
	Neg  bool // @!pN

	Dst     uint8 // destination register (or predicate index for setp)
	A, B, C Src

	Off    int32  // memory offset / immediate slot data
	Slot   uint8  // attr/out slot, texture unit, selp predicate
	Cmp    Cmp    // for setp
	Target uint32 // resolved branch/ssy target pc
	label  string // unresolved label (assembler internal)
}

// Class buckets opcodes by execution resource, which determines issue
// port and latency in the SIMT core model.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota
	ClassSFU
	ClassMem
	ClassCtrl
	ClassTex // texture sampling (memory via L1T)
	ClassROP // in-shader raster ops (memory via L1Z / L1D)
)

// ClassOf returns the resource class of an opcode.
func ClassOf(op Opcode) Class { return opTable[op].class }

// IsMemory reports whether the instruction accesses the memory system.
func (i Instr) IsMemory() bool {
	switch ClassOf(i.Op) {
	case ClassMem, ClassTex, ClassROP:
		return true
	}
	return false
}

// HasDst reports whether the instruction writes a general register.
func (i Instr) HasDst() bool { return opTable[i.Op].dst > 0 }

// DstWidth returns how many consecutive registers the instruction writes.
func (i Instr) DstWidth() int { return int(opTable[i.Op].dst) }

// quadSrc reports whether the instruction reads its a operand as the
// quad a..a+3 (out4, pack4, and fbst, whose one register is accounted
// as a quad).
func (i Instr) quadSrc() bool { return strings.IndexByte(opTable[i.Op].form, 'A') >= 0 }

// Decoded is the issue-path view of one instruction: everything the SIMT
// core's scheduler asks about an instruction every cycle, derived once by
// Assemble so the hot path indexes Program.Decode by pc and never copies
// or re-inspects an Instr. NumRegs is 64, so register sets are bitmasks.
type Decoded struct {
	// Hazard has one bit per register the scoreboard check inspects:
	// the A, B and C register fields (an operand the opcode does not use
	// is the zero Src, register 0), the quad a..a+3 of out4/pack4 and of
	// zst/fbst (which read only a; the over-wide check is kept, see
	// DESIGN.md "SIMT hot path"), and the destination registers.
	Hazard uint64
	// Dst has one bit per destination register (DstWidth consecutive
	// registers from Dst; zero when the instruction writes none).
	Dst   uint64
	Class Class
	Mem   bool // accesses the memory system (IsMemory)
}

// Kind is the shader stage a program targets.
type Kind uint8

// Shader kinds.
const (
	KindVertex Kind = iota
	KindFragment
	KindCompute
)

func (k Kind) String() string {
	switch k {
	case KindVertex:
		return "vertex"
	case KindFragment:
		return "fragment"
	}
	return "compute"
}

// Program is an assembled shader.
type Program struct {
	Name   string
	Kind   Kind
	Code   []Instr
	Labels map[string]uint32

	// Decode parallels Code. Assemble builds it and nothing writes it
	// afterwards: systems running at once issue warps of one Program.
	Decode []Decoded

	// RegsUsed is the highest register index referenced + 1 (occupancy).
	RegsUsed int
	// InSlots / OutSlots are the attribute slot counts referenced.
	InSlots, OutSlots int
	// Units is the highest texture unit referenced + 1.
	Units int
}

func (p *Program) String() string {
	return fmt.Sprintf("%s shader %q: %d instrs, %d regs", p.Kind, p.Name, len(p.Code), p.RegsUsed)
}
