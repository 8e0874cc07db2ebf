// Package shader defines EIR, the PTX-like scalar ISA that Emerald-Go's
// unified SIMT cores execute for vertex, fragment and compute work. It
// mirrors the role of the paper's TGSItoPTX output: shaders are real
// programs, assembled from text, interpreted per-thread on the timing
// model (with graphics-specific instructions for attribute I/O, texture
// sampling and in-shader raster operations, as the paper adds to
// GPGPU-Sim's ISA).
package shader

import "fmt"

// Opcode enumerates EIR instructions.
type Opcode uint8

// Opcodes. The comment gives the assembly mnemonic.
const (
	OpNop Opcode = iota // nop

	// Float arithmetic (registers hold raw 32-bit values; f-ops treat
	// them as float32).
	OpFMov  // mov   rd, a
	OpFAdd  // add   rd, a, b
	OpFSub  // sub   rd, a, b
	OpFMul  // mul   rd, a, b
	OpFDiv  // div   rd, a, b
	OpFMin  // min   rd, a, b
	OpFMax  // max   rd, a, b
	OpFMad  // mad   rd, a, b, c
	OpFAbs  // abs   rd, a
	OpFNeg  // neg   rd, a
	OpFFlr  // flr   rd, a
	OpFFrc  // frc   rd, a
	OpFRcp  // rcp   rd, a        (SFU)
	OpFRsq  // rsq   rd, a        (SFU)
	OpFSqrt // sqrt  rd, a        (SFU)
	OpFSin  // sin   rd, a        (SFU)
	OpFCos  // cos   rd, a        (SFU)
	OpFEx2  // ex2   rd, a        (SFU)
	OpFLg2  // lg2   rd, a        (SFU)

	// Integer/bitwise (treat raw bits as int32/uint32).
	OpIAdd // iadd  rd, a, b
	OpISub // isub  rd, a, b
	OpIMul // imul  rd, a, b
	OpIMad // imad  rd, a, b, c
	OpIMin // imin  rd, a, b
	OpIMax // imax  rd, a, b
	OpIAnd // and   rd, a, b
	OpIOr  // or    rd, a, b
	OpIXor // xor   rd, a, b
	OpIShl // shl   rd, a, b
	OpIShr // shr   rd, a, b     (logical)
	OpCvtFI
	// cvt.f2i rd, a (truncate)
	OpCvtIF // cvt.i2f rd, a

	// Predicates.
	OpSetpF // setp.<cmp>.f pd, a, b
	OpSetpI // setp.<cmp>.i pd, a, b
	OpSelp  // selp rd, a, b, pX (rd = pX ? a : b)

	// Control flow.
	OpBra  // bra LABEL (predicated for conditional branches)
	OpSSY  // ssy LABEL (set reconvergence point for next divergent bra)
	OpExit // exit
	OpKill // kill (fragment discard / thread terminate)
	OpBar  // bar (thread-block barrier, compute only)

	// Special registers.
	OpMovS // movs rd, %sreg

	// Memory.
	OpLdGlobal // ldg rd, [ra+imm]
	OpStGlobal // stg [ra+imm], a
	OpLdShared // lds rd, [ra+imm]
	OpStShared // sts [ra+imm], a
	OpLdConst  // ldc rd, [imm] | ldc rd, [ra+imm]
	OpAtomAdd  // atom.add rd, [ra+imm], a   (via L2 atomic unit)

	// Graphics.
	OpAttr4 // attr4 rd, slot   (rd..rd+3 <- input attribute vec4)
	OpOut4  // out4 slot, a     (output vec4 from a..a+3; VS varyings)
	OpTex4  // tex4 rd, unit, ru, rv (rd..rd+3 <- RGBA sample)
	OpZLd   // zld rd           (depth buffer read at fragment pixel)
	OpZSt   // zst a            (depth buffer write)
	OpFBLd  // fbld rd          (framebuffer color read, packed RGBA8)
	OpFBSt  // fbst a           (framebuffer color write, packed RGBA8)
	OpPack4 // pack4 rd, a      (rd <- RGBA8 from floats a..a+3)
	OpUnpk4 // unpk4 rd, a      (rd..rd+3 <- floats from RGBA8 a)

	opCount
)

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
func ClassOf(op Opcode) Class {
	switch op {
	case OpFRcp, OpFRsq, OpFSqrt, OpFSin, OpFCos, OpFEx2, OpFLg2:
		return ClassSFU
	case OpLdGlobal, OpStGlobal, OpLdShared, OpStShared, OpLdConst, OpAtomAdd, OpAttr4, OpOut4:
		return ClassMem
	case OpTex4:
		return ClassTex
	case OpZLd, OpZSt, OpFBLd, OpFBSt:
		return ClassROP
	case OpBra, OpSSY, OpExit, OpKill, OpBar:
		return ClassCtrl
	}
	return ClassALU
}

// IsMemory reports whether the instruction accesses the memory system.
func (i Instr) IsMemory() bool {
	switch ClassOf(i.Op) {
	case ClassMem, ClassTex, ClassROP:
		return true
	}
	return false
}

// HasDst reports whether the instruction writes a general register.
func (i Instr) HasDst() bool {
	switch i.Op {
	case OpStGlobal, OpStShared, OpOut4, OpZSt, OpFBSt, OpBra, OpSSY,
		OpExit, OpKill, OpBar, OpNop, OpSetpF, OpSetpI:
		return false
	}
	return true
}

// DstWidth returns how many consecutive registers the instruction writes.
func (i Instr) DstWidth() int {
	switch i.Op {
	case OpAttr4, OpTex4, OpUnpk4:
		return 4
	}
	if i.HasDst() {
		return 1
	}
	return 0
}

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
	// afterwards: cluster shards issue warps of one Program in parallel.
	Decode []Decoded

	// RegsUsed is the highest register index referenced + 1 (occupancy).
	RegsUsed int
	// InSlots / OutSlots are the attribute slot counts referenced.
	InSlots, OutSlots int
	// Units is the highest texture unit referenced + 1.
	Units int
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Code) }

func (p *Program) String() string {
	return fmt.Sprintf("%s shader %q: %d instrs, %d regs", p.Kind, p.Name, len(p.Code), p.RegsUsed)
}
