// Package cpu implements the CPU substrate for full-system mode: a small
// RISC-style ISA with a text assembler and an in-order timing core with
// L1/L2 caches. It replaces gem5's ARM cores + Android (see DESIGN.md):
// what Case Study I needs from the CPUs is *dependency-coupled* memory
// traffic — bursty scene/driver work between frames, near-idle spinning
// while blocked on the GPU fence — and these cores produce exactly that
// by executing real (if small) programs against the shared memory.
package cpu

import (
	"fmt"
	"slices"

	"emerald/internal/asm"
)

// NumRegs is the architectural register count.
const NumRegs = 16

// Op is an instruction opcode; opTable gives its mnemonic and operands.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	OpMovi
	OpMov
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpAddi
	OpLd
	OpSt
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpJmp
	OpSys
	OpHalt
)

// opInfo is an opcode's mnemonic and its operands, one letter each in
// assembly order: d rd, a ra, b rb, i an immediate, m a memory operand
// [ra+imm], L a label (into Target).
type opInfo struct{ name, form string }

var opTable = [...]opInfo{
	OpNop:  {"nop", ""},
	OpMovi: {"movi", "di"}, // rd = imm32
	OpMov:  {"mov", "da"},
	OpAdd:  {"add", "dab"},
	OpSub:  {"sub", "dab"},
	OpMul:  {"mul", "dab"}, // 3 cycles
	OpAnd:  {"and", "dab"},
	OpOr:   {"or", "dab"},
	OpXor:  {"xor", "dab"},
	OpShl:  {"shl", "dab"},
	OpShr:  {"shr", "dab"},
	OpAddi: {"addi", "dai"},
	OpLd:   {"ld", "dm"},
	OpSt:   {"st", "mb"},
	OpBeq:  {"beq", "abL"},
	OpBne:  {"bne", "abL"},
	OpBlt:  {"blt", "abL"}, // signed
	OpBge:  {"bge", "abL"}, // signed
	OpJmp:  {"jmp", "L"},
	OpSys:  {"sys", "i"}, // r1 = handler result; may block
	OpHalt: {"halt", ""},
}

// Instr is one decoded instruction.
type Instr struct {
	Op         Op
	Rd, Ra, Rb uint8
	Imm        int32
	Target     uint32
	label      string
}

// Program is an assembled CPU program.
type Program struct {
	Code   []Instr
	Labels map[string]uint32
}

// Assemble parses CPU assembly: asm's comments, labels and operand
// lists, as the shader assembler reads them; registers r0..r15.
func Assemble(name, src string) (*Program, error) {
	lines, labels, err := asm.Lines(name, src)
	if err != nil {
		return nil, err
	}
	p := &Program{Labels: labels, Code: make([]Instr, 0, len(lines))}
	for _, l := range lines {
		in, err := parseInstr(l.Text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, l.N, err)
		}
		p.Code = append(p.Code, in)
	}
	for i := range p.Code {
		in := &p.Code[i]
		if in.label == "" {
			continue
		}
		pc, ok := p.Labels[in.label]
		if !ok {
			return nil, fmt.Errorf("%s: undefined label %q", name, in.label)
		}
		in.Target = pc
		in.label = ""
	}
	if len(p.Code) == 0 {
		return nil, fmt.Errorf("%s: empty program", name)
	}
	return p, nil
}

// MustAssemble panics on error (for built-in workloads).
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseInstr(text string) (Instr, error) {
	var in Instr
	mn, ops := asm.Fields(text)
	op := slices.IndexFunc(opTable[:], func(o opInfo) bool { return o.name == mn })
	if op < 0 {
		return in, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in.Op = Op(op)
	err := asm.Operands(mn, opTable[op].form, ops, func(f byte, tok string) error {
		var err error
		switch f {
		case 'd':
			in.Rd, err = asm.Reg(tok, NumRegs)
		case 'a':
			in.Ra, err = asm.Reg(tok, NumRegs)
		case 'b':
			in.Rb, err = asm.Reg(tok, NumRegs)
		case 'i':
			in.Imm, err = asm.Int(tok)
		case 'm':
			var base int
			base, in.Imm, err = asm.Mem(tok, NumRegs, false)
			in.Ra = uint8(base)
		case 'L':
			in.label = tok
			if !asm.IsIdent(tok) {
				err = fmt.Errorf("bad label %q", tok)
			}
		}
		return err
	})
	return in, err
}
