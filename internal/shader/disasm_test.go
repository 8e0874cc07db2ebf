package shader

import (
	"strings"
	"testing"
)

func TestDisasmRoundTripsThroughAssembler(t *testing.T) {
	// Disassembling a program and re-assembling it must produce an
	// equivalent instruction stream (label names differ; opcodes,
	// operands and targets must match).
	for _, p := range []*Program{
		VSTransform, FSTexturedEarlyZ, FSTexturedLateZ, FSTexturedBlend,
		FSFlat, KernelSAXPY, KernelVecAdd, KernelReduceAtomic,
	} {
		text := Disassemble(p)
		// Strip the comment header; reassemble.
		lines := strings.SplitN(text, "\n", 2)
		p2, err := Assemble(p.Name+"_rt", p.Kind, lines[1])
		if err != nil {
			t.Fatalf("%s: reassembly failed: %v\n%s", p.Name, err, text)
		}
		if len(p2.Code) != len(p.Code) {
			t.Fatalf("%s: length %d -> %d", p.Name, len(p.Code), len(p2.Code))
		}
		for pc := range p.Code {
			a, b := p.Code[pc], p2.Code[pc]
			if a.Op != b.Op || a.Dst != b.Dst || a.Pred != b.Pred || a.Neg != b.Neg ||
				a.Slot != b.Slot || a.Cmp != b.Cmp || a.Target != b.Target ||
				a.Off != b.Off || a.A != b.A || a.B != b.B || a.C != b.C {
				t.Fatalf("%s pc %d: %q != %q", p.Name, pc, DisasmInstr(a), DisasmInstr(b))
			}
		}
	}
}

func TestDisasmFormats(t *testing.T) {
	p := MustAssemble("t", KindFragment, `
		movs r20, %fz
		zld  r21
		setp.ge.f p3, r20, r21
		@p3 kill
		ldg r1, [r2+16]
		stg [r3-4], r1
		ldc r4, [32]
		tex4 r8, 1, r4, r5
		pack4 r12, r8
		fbst r12
		mad r6, r1, r4, r8
		ssy done
		bra done
	done:
		exit
	`)
	text := Disassemble(p)
	for _, want := range []string{
		"movs r20, %fz",
		"setp.ge.f p3, r20, r21",
		"@p3 kill",
		"ldg r1, [r2+16]",
		"stg [r3-4], r1",
		"ldc r4, [32]",
		"tex4 r8, 1, r4, r5",
		"fbst r12",
		"mad r6, r1, r4, r8",
		"pc13:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestDisasmImmediates(t *testing.T) {
	p := MustAssemble("t", KindCompute, `
		mov r1, 2.5
		iadd r2, r1, -7
		exit
	`)
	text := Disassemble(p)
	if !strings.Contains(text, "mov r1, 2.5") {
		t.Fatalf("float immediate lost:\n%s", text)
	}
	if !strings.Contains(text, "iadd r2, r1, -7") {
		t.Fatalf("int immediate lost:\n%s", text)
	}
}
