package shader

import (
	"fmt"
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

// A program whose control can run past its last instruction must be
// rejected at assembly, with the pc: the timed core would keep such a
// warp awake and unretired forever, and the functional executor indexes
// Code[pc] unchecked.
func TestAssembleRejectsFallingOffTheEnd(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{"mov r0, 1.0", false},
		{"exit\nnop", false},
		{"setp.eq.i p0, r0, 0\n@p0 exit", false},
		{"setp.eq.i p0, r0, 0\n@!p0 kill", false},
		{"top: setp.eq.i p0, r0, 0\n@p0 bra top", false},
		{"top: nop\nssy top", false},
		{"nop\nbar", false},
		{"exit", true},
		{"nop\nkill", true},
		{"top: nop\nbra top", true},
		{"setp.eq.i p0, r0, 0\n@p0 exit\nexit", true},
	} {
		_, err := Assemble("t", KindCompute, tc.src)
		last := strings.Count(tc.src, "\n")
		switch {
		case tc.ok && err != nil:
			t.Errorf("%q: %v", tc.src, err)
		case !tc.ok && err == nil:
			t.Errorf("%q assembled, want an error", tc.src)
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("pc %d", last)):
			t.Errorf("%q: error %q does not name pc %d", tc.src, err, last)
		}
	}
}

// successors lists the pcs control can reach from the instruction at
// pc, derived from the opcode alone (not from validate's rule).
func successors(in Instr, pc int) []int {
	switch {
	case in.Op == OpBra && in.Pred < 0:
		return []int{int(in.Target)}
	case in.Op == OpBra:
		return []int{int(in.Target), pc + 1}
	case (in.Op == OpExit || in.Op == OpKill) && in.Pred < 0:
		return nil
	case in.Op == OpSSY: // the reconvergence entry resumes at the target
		return []int{int(in.Target), pc + 1}
	}
	return []int{pc + 1}
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
			// An accepted program never reaches pc == len(Code).
			for _, next := range successors(in, pc) {
				if next >= len(p.Code) {
					t.Fatalf("pc %d (%s): control can reach pc %d of %d", pc, DisasmInstr(in), next, len(p.Code))
				}
			}
			// Every register the executors index, quads included.
			th := &Thread{}
			execALU(&in, th, &Special{})
			_ = DisasmInstr(in)
		}
	})
}
