package shader

import (
	"strings"
	"testing"
)

// Quad operands that run past r63 must be rejected at assembly, with
// the pc: the executor indexes Regs[r+3] unchecked.
func TestAssembleRejectsQuadPastRegisterFile(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		line string
		ok   bool
	}{
		{KindFragment, "attr4 r60, 0", true},
		{KindFragment, "attr4 r61, 0", false},
		{KindFragment, "tex4 r60, 0, r0, r1", true},
		{KindFragment, "tex4 r62, 0, r0, r1", false},
		{KindFragment, "tex4 r0, 0, r62, r63", true}, // u, v are single registers
		{KindCompute, "unpk4 r60, r0", true},
		{KindCompute, "unpk4 r63, r0", false},
		{KindCompute, "pack4 r63, r60", true},
		{KindCompute, "pack4 r0, r61", false},
		{KindVertex, "out4 0, r60", true},
		{KindVertex, "out4 0, r61", false},
		{KindVertex, "out4 0, 1.0", true},
		// fbst reads one register but occupancy accounts a quad
		// (computeMeta), so it must fit too; zst is a single register
		// everywhere but the scoreboard check.
		{KindFragment, "fbst r60", true},
		{KindFragment, "fbst r61", false},
		{KindFragment, "zst r63", true},
		{KindFragment, "zld r63", true},
		{KindCompute, "mad r63, r63, r63, r63", true},
	} {
		p, err := Assemble("t", tc.kind, "nop\n"+tc.line+"\nexit\n")
		switch {
		case tc.ok && err != nil:
			t.Errorf("%q: %v", tc.line, err)
		case tc.ok && p.RegsUsed > NumRegs:
			t.Errorf("%q: RegsUsed = %d", tc.line, p.RegsUsed)
		case !tc.ok && err == nil:
			t.Errorf("%q assembled with RegsUsed = %d, want an error", tc.line, p.RegsUsed)
		case !tc.ok && !strings.Contains(err.Error(), "pc 1"):
			t.Errorf("%q: error %q does not name pc 1", tc.line, err)
		}
	}
}

// FuzzAssemble feeds the assembler arbitrary text. It must never panic,
// and whatever it accepts must be safe to hand to the executors, which
// index registers, branch targets and the decode table unchecked.
func FuzzAssemble(f *testing.F) {
	for _, p := range registry {
		f.Add(Disassemble(p), uint8(p.Kind))
	}
	f.Add("tex4 r62, 0, r0, r1\nexit", uint8(KindFragment))
	f.Add("a: b: @!p3 bra a\nssy b\nexit", uint8(KindCompute))
	f.Add("atom.add r1, [r2-0x10], r3 ; c\nldc r4, [12] // c\nsetp.ne.i p1, r1, -1", uint8(KindCompute))
	f.Fuzz(func(t *testing.T, src string, kind uint8) {
		p, err := Assemble("fuzz", Kind(kind%3), src)
		if err != nil {
			return
		}
		if len(p.Code) == 0 || len(p.Decode) != len(p.Code) {
			t.Fatalf("%d instructions, %d decode entries", len(p.Code), len(p.Decode))
		}
		if p.RegsUsed > NumRegs {
			t.Fatalf("RegsUsed = %d > %d", p.RegsUsed, NumRegs)
		}
		for pc, in := range p.Code {
			if (in.Op == OpBra || in.Op == OpSSY) && in.Target >= uint32(len(p.Code)) {
				t.Fatalf("pc %d: branch target %d out of range", pc, in.Target)
			}
			if in.Pred >= NumPregs {
				t.Fatalf("pc %d: predicate p%d", pc, in.Pred)
			}
			// Every register the executors index, quads included.
			th := &Thread{}
			execALU(&in, th, &Special{})
			_ = DisasmInstr(in)
		}
	})
}
