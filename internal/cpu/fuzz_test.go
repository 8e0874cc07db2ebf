package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// listing renders p as assembly text from opTable's forms, every branch
// target as a "pcN" label.
func listing(p *Program) string {
	var b strings.Builder
	for pc, in := range p.Code {
		fmt.Fprintf(&b, "pc%d:\n\t%s", pc, opTable[in.Op].name)
		sep := " "
		for _, f := range opTable[in.Op].form {
			b.WriteString(sep)
			sep = ", "
			switch f {
			case 'd':
				fmt.Fprintf(&b, "r%d", in.Rd)
			case 'a':
				fmt.Fprintf(&b, "r%d", in.Ra)
			case 'b':
				fmt.Fprintf(&b, "r%d", in.Rb)
			case 'i':
				fmt.Fprintf(&b, "%d", in.Imm)
			case 'm':
				fmt.Fprintf(&b, "[r%d+%d]", in.Ra, in.Imm)
			case 'L':
				fmt.Fprintf(&b, "pc%d", in.Target)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "pc%d:\n", len(p.Code))
	return b.String()
}

// FuzzCPUAssemble feeds the CPU assembler arbitrary text. It must never
// panic, and a program it accepts must be safe to run: the core indexes
// its registers unchecked, and halts when its pc reaches len(Code), so
// every branch target may be at most that.
func FuzzCPUAssemble(f *testing.F) {
	for _, p := range []*Program{AppFrameLoop, BackgroundTask, IdleTask} {
		f.Add(listing(p))
	}
	for _, src := range []string{
		"ld r1, []", "st [], r1", "ld r1, [ ]", "add r1, r2, r3, r4", "halt r1",
		"x: x: halt", "a: b: ld r15, [r14-0x10] ; c\nst [r1+], r2 // c\nblt r1, r2, b",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		for pc, in := range p.Code {
			if in.Rd >= NumRegs || in.Ra >= NumRegs || in.Rb >= NumRegs {
				t.Fatalf("pc %d: %+v names a register past r%d", pc, in, NumRegs-1)
			}
			if in.Target > uint32(len(p.Code)) {
				t.Fatalf("pc %d: target %d past the end %d", pc, in.Target, len(p.Code))
			}
		}
		if q, err := Assemble("fuzz", listing(p)); err != nil || !slices.Equal(q.Code, p.Code) {
			t.Fatalf("listing does not reassemble (%v):\n%s", err, listing(p))
		}
	})
}
