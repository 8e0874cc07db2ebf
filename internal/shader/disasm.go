package shader

import (
	"fmt"
	"math"
	"strings"
)

var sregByIndex = func() map[SReg]string {
	m := make(map[SReg]string, len(sregNames))
	for name, r := range sregNames {
		m[r] = name
	}
	return m
}()

func srcString(s Src, intImm bool) string {
	if !s.IsImm {
		return fmt.Sprintf("r%d", s.Reg)
	}
	if intImm {
		return fmt.Sprintf("%d", int32(s.Imm))
	}
	return strings.TrimRight(strings.TrimRight(
		fmt.Sprintf("%g", math.Float32frombits(s.Imm)), "0"), ".")
}

// memString renders a memory operand.
func memString(in Instr) string {
	if in.B.IsImm {
		return fmt.Sprintf("[%d]", in.Off)
	}
	if in.Off == 0 {
		return fmt.Sprintf("[r%d]", in.B.Reg)
	}
	if in.Off < 0 {
		return fmt.Sprintf("[r%d-%d]", in.B.Reg, -in.Off)
	}
	return fmt.Sprintf("[r%d+%d]", in.B.Reg, in.Off)
}

// DisasmInstr renders one instruction in assembler syntax, operand by
// operand from the opcode's form, so the assembler reads it back.
// Branch/ssy targets print as "pcN" labels.
func DisasmInstr(in Instr) string {
	var b strings.Builder
	if in.Pred >= 0 {
		if in.Neg {
			fmt.Fprintf(&b, "@!p%d ", in.Pred)
		} else {
			fmt.Fprintf(&b, "@p%d ", in.Pred)
		}
	}
	info := opTable[in.Op]
	if in.Op == OpSetpF || in.Op == OpSetpI {
		fmt.Fprintf(&b, "setp.%s%s", in.Cmp, strings.TrimPrefix(info.name, "setp"))
	} else {
		b.WriteString(info.name)
	}
	sep := " "
	for i := 0; i < len(info.form); i++ {
		b.WriteString(sep)
		sep = ", "
		switch f := info.form[i]; f {
		case 'd':
			fmt.Fprintf(&b, "r%d", in.Dst)
		case 'P':
			fmt.Fprintf(&b, "p%d", in.Dst)
		case 'a', 'A', 'b', 'c':
			b.WriteString(srcString(*in.src(f), info.isInt))
		case 'p':
			fmt.Fprintf(&b, "p%d", in.Slot)
		case 'm':
			b.WriteString(memString(in))
		case 'L':
			fmt.Fprintf(&b, "pc%d", in.Target)
		case 's':
			b.WriteString(sregByIndex[SReg(in.Slot)])
		case 'S':
			fmt.Fprintf(&b, "%d", in.Slot)
		}
	}
	return b.String()
}

// Disassemble renders a whole program with pc labels at branch targets.
func Disassemble(p *Program) string {
	targets := map[uint32]bool{}
	for _, in := range p.Code {
		if in.Op == OpBra || in.Op == OpSSY {
			targets[in.Target] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; %s\n", p.String())
	for pc, in := range p.Code {
		if targets[uint32(pc)] {
			fmt.Fprintf(&b, "pc%d:\n", pc)
		}
		fmt.Fprintf(&b, "\t%s\n", DisasmInstr(in))
	}
	return b.String()
}
