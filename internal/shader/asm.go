package shader

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"emerald/internal/asm"
)

// Assemble parses EIR assembly text into a Program. Syntax (the
// comments, labels and operand lists are asm's, shared with the CPU
// assembler):
//
//	; comment                      // comment
//	label:
//	    [@p0|@!p1] mnemonic operands
//
// Operands: rN (register), pN (predicate), %sreg, numeric immediates
// (integer or float depending on the opcode), [rN+off] memory operands,
// and label names for bra/ssy.
func Assemble(name string, kind Kind, src string) (*Program, error) {
	lines, labels, err := asm.Lines(name, src)
	if err != nil {
		return nil, err
	}
	p := &Program{Name: name, Kind: kind, Labels: labels, Code: make([]Instr, 0, len(lines))}
	for _, l := range lines {
		in, err := parseInstr(l.Text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, l.N, err)
		}
		p.Code = append(p.Code, in)
	}

	// Resolve labels.
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

	p.computeMeta()
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.decode()
	return p, nil
}

// MustAssemble is Assemble that panics on error, for the built-in shader
// library.
func MustAssemble(name string, kind Kind, src string) *Program {
	p, err := Assemble(name, kind, src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseInstr parses one instruction line: an optional @p or @!p guard,
// then the mnemonic and the operands its opTable form names.
func parseInstr(text string) (Instr, error) {
	in := Instr{Pred: -1}
	if strings.HasPrefix(text, "@") {
		sp := strings.IndexAny(text, " \t")
		if sp < 0 {
			return in, fmt.Errorf("predicate with no instruction: %q", text)
		}
		pred := text[1:sp]
		text = strings.TrimSpace(text[sp:])
		in.Neg = strings.HasPrefix(pred, "!")
		pi, err := parsePred(strings.TrimPrefix(pred, "!"))
		if err != nil {
			return in, err
		}
		in.Pred = int8(pi)
	}

	mn, ops := asm.Fields(text)
	// setp.<cmp>.<f|i>: the comparison is an operand of the mnemonic.
	if rest, ok := strings.CutPrefix(mn, "setp."); ok {
		cmp, typ, _ := strings.Cut(rest, ".")
		for in.Cmp = CmpLT; in.Cmp.String() != cmp; in.Cmp++ {
			if in.Cmp == CmpNE {
				return in, fmt.Errorf("bad comparison %q", cmp)
			}
		}
		mn = "setp." + typ
	}
	op, ok := mnemonics[mn]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in.Op = op
	isInt := opTable[op].isInt
	err := asm.Operands(mn, opTable[op].form, ops, func(f byte, tok string) error {
		var err error
		switch f {
		case 'd':
			in.Dst, err = asm.Reg(tok, NumRegs)
		case 'P':
			in.Dst, err = parsePred(tok)
		case 'a', 'A', 'b', 'c':
			*in.src(f), err = parseSrc(tok, isInt)
		case 'p':
			in.Slot, err = parsePred(tok)
		case 'm':
			var base int
			base, in.Off, err = asm.Mem(tok, NumRegs, true)
			in.B = R(uint8(base))
			if base < 0 { // [off], an absolute address
				in.B = Src{IsImm: true}
			}
		case 'L':
			in.label = tok
			if !asm.IsIdent(tok) {
				err = fmt.Errorf("bad label %q", tok)
			}
		case 's':
			sr, ok := sregNames[tok]
			if !ok {
				return fmt.Errorf("unknown special register %q", tok)
			}
			in.Slot = uint8(sr)
		case 'S':
			v, aerr := strconv.Atoi(tok)
			if aerr != nil || v < 0 || v > 255 {
				return fmt.Errorf("bad slot %q", tok)
			}
			in.Slot = uint8(v)
		}
		return err
	})
	return in, err
}

// src returns the source operand a form letter names.
func (i *Instr) src(f byte) *Src {
	switch f {
	case 'a', 'A':
		return &i.A
	case 'b':
		return &i.B
	}
	return &i.C
}

func parsePred(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'p' {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumPregs {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	return uint8(n), nil
}

func parseSrc(s string, isInt bool) (Src, error) {
	if len(s) > 1 && s[0] == 'r' {
		if r, err := asm.Reg(s, NumRegs); err == nil {
			return R(r), nil
		}
	}
	// Immediate.
	if isInt && !strings.ContainsAny(s, ".eE") {
		v, err := asm.Int(s)
		return Src{Imm: uint32(v), IsImm: true}, err
	}
	f, err := strconv.ParseFloat(s, 32)
	if err != nil {
		return Src{}, fmt.Errorf("bad operand %q", s)
	}
	return Src{Imm: math.Float32bits(float32(f)), IsImm: true}, nil
}

// computeMeta fills RegsUsed, InSlots, OutSlots and Units.
func (p *Program) computeMeta() {
	maxReg := -1
	touch := func(r int) {
		if r > maxReg {
			maxReg = r
		}
	}
	for _, in := range p.Code {
		if in.HasDst() {
			touch(int(in.Dst) + in.DstWidth() - 1)
		}
		for _, s := range []Src{in.A, in.B, in.C} {
			if !s.IsImm && (s.Reg != 0 || usesSrcReg(in)) {
				touch(int(s.Reg))
			}
		}
		if in.quadSrc() && !in.A.IsImm {
			touch(int(in.A.Reg) + 3)
		}
		switch in.Op {
		case OpAttr4:
			if int(in.Slot)+1 > p.InSlots {
				p.InSlots = int(in.Slot) + 1
			}
		case OpOut4:
			if int(in.Slot)+1 > p.OutSlots {
				p.OutSlots = int(in.Slot) + 1
			}
		case OpTex4:
			if int(in.Slot)+1 > p.Units {
				p.Units = int(in.Slot) + 1
			}
		}
	}
	p.RegsUsed = maxReg + 1
}

// decode fills the Decode table. It runs after validate, so every quad
// destination lies inside the register file.
func (p *Program) decode() {
	p.Decode = make([]Decoded, len(p.Code))
	for pc := range p.Code {
		in := &p.Code[pc]
		d := &p.Decode[pc]
		d.Class = ClassOf(in.Op)
		d.Mem = in.IsMemory()
		for i := 0; i < in.DstWidth(); i++ {
			d.Dst |= 1 << (int(in.Dst) + i)
		}
		d.Hazard = d.Dst
		for _, s := range [...]Src{in.A, in.B, in.C} {
			if !s.IsImm {
				d.Hazard |= 1 << s.Reg
			}
		}
		// zst reads one register and is no quad source anywhere else,
		// but the scoreboard checks its quad too: its quad may run past
		// the file, and the bits that would are dropped.
		if (in.quadSrc() || in.Op == OpZSt) && !in.A.IsImm {
			for r := int(in.A.Reg); r < int(in.A.Reg)+4 && r < NumRegs; r++ {
				d.Hazard |= 1 << r
			}
		}
	}
}

// usesSrcReg is a conservative check: register r0 as source counts only
// for opcodes that have a source or memory operand.
func usesSrcReg(in Instr) bool { return strings.ContainsAny(opTable[in.Op].form, "aAbcm") }

func (p *Program) validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("shader %q: empty program", p.Name)
	}
	for pc, in := range p.Code {
		if (in.Op == OpBra || in.Op == OpSSY) && in.Target >= uint32(len(p.Code)) {
			return fmt.Errorf("shader %q pc %d: branch target out of range", p.Name, pc)
		}
		// Quad operands must end inside the register file: the executor
		// indexes Regs[r+3] unchecked. The quad sources are computeMeta's
		// (fbst reads one register but is accounted as a quad), which
		// also keeps RegsUsed <= NumRegs.
		if w := in.DstWidth(); int(in.Dst)+w > NumRegs {
			return fmt.Errorf("shader %q pc %d: destination r%d..r%d runs past r%d", p.Name, pc, in.Dst, int(in.Dst)+w-1, NumRegs-1)
		}
		if in.quadSrc() && !in.A.IsImm && int(in.A.Reg)+4 > NumRegs {
			return fmt.Errorf("shader %q pc %d: source r%d..r%d runs past r%d", p.Name, pc, in.A.Reg, int(in.A.Reg)+3, NumRegs-1)
		}
	}
	// Control must not run off the end: the executors index Code and
	// Decode by pc unchecked, and a warp whose pc left the program never
	// retires. Branch targets are in range, so only the last instruction
	// can fall through.
	if last := p.Code[len(p.Code)-1]; last.Pred >= 0 || (last.Op != OpExit && last.Op != OpKill && last.Op != OpBra) {
		return fmt.Errorf("shader %q pc %d: control can run off the end of the program (the last instruction must be an unpredicated exit, kill or bra)",
			p.Name, len(p.Code)-1)
	}
	// Graphics-op sanity per kind.
	for pc, in := range p.Code {
		if in.Op == OpOut4 && p.Kind == KindCompute {
			return fmt.Errorf("shader %q pc %d: out4 in compute shader", p.Name, pc)
		}
		if ClassOf(in.Op) == ClassROP && p.Kind != KindFragment {
			return fmt.Errorf("shader %q pc %d: ROP op outside fragment shader", p.Name, pc)
		}
	}
	return nil
}
