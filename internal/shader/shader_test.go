package shader

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAssembleBasicProgram(t *testing.T) {
	p, err := Assemble("t", KindCompute, `
		; saxpy inner step
		movs  r0, %tid
		cvt.i2f r1, r0
		mul   r2, r1, 2.0
		add   r3, r2, 1.0
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("len = %d, want 5", p.Len())
	}
	if p.RegsUsed != 4 {
		t.Fatalf("regs = %d, want 4", p.RegsUsed)
	}
	if p.Code[0].Op != OpMovS || SReg(p.Code[0].Slot) != SRegTID {
		t.Fatal("movs decode wrong")
	}
	if p.Code[2].Op != OpFMul || !p.Code[2].B.IsImm {
		t.Fatal("mul imm decode wrong")
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p, err := Assemble("t", KindCompute, `
		mov r0, 0.0
	loop:
		add r0, r0, 1.0
		setp.lt.f p0, r0, 10.0
		ssy done
		@p0 bra loop
	done:
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	bra := p.Code[4]
	if bra.Op != OpBra || bra.Target != 1 || bra.Pred != 0 || bra.Neg {
		t.Fatalf("bra decode = %+v", bra)
	}
	ssy := p.Code[3]
	if ssy.Op != OpSSY || ssy.Target != 5 {
		t.Fatalf("ssy decode = %+v", ssy)
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	p, err := Assemble("t", KindCompute, `
		ldg r1, [r2+16]
		stg [r3-4], r1
		ldc r4, [32]
		lds r5, [r6]
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Off != 16 || p.Code[0].B.Reg != 2 {
		t.Fatalf("ldg decode = %+v", p.Code[0])
	}
	if p.Code[1].Off != -4 {
		t.Fatalf("stg decode = %+v", p.Code[1])
	}
	if p.Code[2].Off != 32 || !p.Code[2].B.IsImm {
		t.Fatalf("ldc decode = %+v", p.Code[2])
	}
	if p.Code[3].Off != 0 || p.Code[3].B.Reg != 6 {
		t.Fatalf("lds decode = %+v", p.Code[3])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frobnicate r1, r2",
		"bra nowhere",
		"mov r99, r0",
		"setp.xx.f p0, r0, r1",
		"@p9 mov r0, r1",
		"ldg r1, r2",     // not a memory operand
		"mov r0, r1, r2", // too many operands
		"",               // empty program
		"loop: loop: exit",
	}
	for _, src := range cases {
		if _, err := Assemble("bad", KindCompute, src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestValidateKindRestrictions(t *testing.T) {
	if _, err := Assemble("t", KindCompute, "out4 0, r0\nexit"); err == nil {
		t.Fatal("out4 must be rejected in compute shaders")
	}
	if _, err := Assemble("t", KindVertex, "fbst r0\nexit"); err == nil {
		t.Fatal("fbst must be rejected outside fragment shaders")
	}
	if _, err := Assemble("t", KindFragment, "fbst r0\nexit"); err != nil {
		t.Fatalf("fbst in fragment shader should assemble: %v", err)
	}
}

func execOne(t *testing.T, src string, setup func(*Thread)) *Thread {
	t.Helper()
	p, err := Assemble("t", KindCompute, src+"\nexit")
	if err != nil {
		t.Fatal(err)
	}
	th := &Thread{}
	if setup != nil {
		setup(th)
	}
	for _, in := range p.Code {
		if in.Op == OpExit {
			break
		}
		if Active(&in, th) {
			ExecALU(in, th, Special{TID: 7, NTID: 64, CTAID: 3})
		}
	}
	return th
}

func TestALUSemantics(t *testing.T) {
	th := execOne(t, `
		mov r1, 3.0
		mov r2, 4.0
		mul r3, r1, r2
		mad r4, r1, r2, 1.0
		sub r5, r2, r1
		div r6, r2, r1
		min r7, r1, r2
		max r8, r1, r2
		sqrt r9, 16.0
		rcp r10, 4.0
		abs r11, -5.5
		neg r12, r1
		flr r13, 2.75
		frc r14, 2.75
	`, nil)
	checks := map[uint8]float32{
		3: 12, 4: 13, 5: 1, 6: 4.0 / 3.0, 7: 3, 8: 4, 9: 4, 10: 0.25,
		11: 5.5, 12: -3, 13: 2, 14: 0.75,
	}
	for r, want := range checks {
		if got := math.Float32frombits(th.Regs[r]); got != want {
			t.Fatalf("r%d = %v, want %v", r, got, want)
		}
	}
}

func TestIntSemantics(t *testing.T) {
	th := execOne(t, `
		iadd r1, r0, 10
		imul r2, r1, 3
		isub r3, r2, 5
		and  r4, r2, 0xF
		shl  r5, r1, 2
		shr  r6, r5, 1
		imad r7, r1, r1, 1
		imin r8, r1, r3
		imax r9, r1, r3
		cvt.i2f r10, r1
		cvt.f2i r11, r10
	`, nil)
	wants := map[uint8]uint32{
		1: 10, 2: 30, 3: 25, 4: 30 & 0xF, 5: 40, 6: 20, 7: 101, 8: 10, 9: 25, 11: 10,
	}
	for r, want := range wants {
		if th.Regs[r] != want {
			t.Fatalf("r%d = %d, want %d", r, th.Regs[r], want)
		}
	}
	if math.Float32frombits(th.Regs[10]) != 10 {
		t.Fatal("cvt.i2f wrong")
	}
}

func TestPredicationAndSelp(t *testing.T) {
	th := execOne(t, `
		mov r1, 1.0
		mov r2, 2.0
		setp.lt.f p0, r1, r2
		@p0  mov r3, 10.0
		@!p0 mov r3, 20.0
		selp r4, r1, r2, p0
		setp.ge.f p1, r1, r2
		selp r5, r1, r2, p1
	`, nil)
	if got := math.Float32frombits(th.Regs[3]); got != 10 {
		t.Fatalf("predicated mov: r3 = %v", got)
	}
	if got := math.Float32frombits(th.Regs[4]); got != 1 {
		t.Fatalf("selp true: %v", got)
	}
	if got := math.Float32frombits(th.Regs[5]); got != 2 {
		t.Fatalf("selp false: %v", got)
	}
}

func TestSpecialRegisters(t *testing.T) {
	th := execOne(t, `
		movs r1, %tid
		movs r2, %ntid
		movs r3, %ctaid
	`, nil)
	if th.Regs[1] != 7 || th.Regs[2] != 64 || th.Regs[3] != 3 {
		t.Fatalf("sregs = %d %d %d", th.Regs[1], th.Regs[2], th.Regs[3])
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(r, g, b, a uint8) bool {
		c := PackRGBA8(float32(r)/255, float32(g)/255, float32(b)/255, float32(a)/255)
		rr, gg, bb, aa := UnpackRGBA8(c)
		return to8(rr) == r && to8(gg) == g && to8(bb) == b && to8(aa) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if PackRGBA8(2, -1, 0.5, 1) != uint32(255)|uint32(0)<<8|uint32(128)<<16|uint32(255)<<24 {
		t.Fatal("pack clamping wrong")
	}
}

func TestPackUnpackInstrs(t *testing.T) {
	th := execOne(t, `
		mov r1, 1.0
		mov r2, 0.5
		mov r3, 0.0
		mov r4, 1.0
		pack4 r5, r1
		unpk4 r6, r5
	`, nil)
	if th.Regs[5] != PackRGBA8(1, 0.5, 0, 1) {
		t.Fatalf("pack4 = %#x", th.Regs[5])
	}
	if math.Float32frombits(th.Regs[6]) != 1 || math.Float32frombits(th.Regs[9]) != 1 {
		t.Fatal("unpk4 wrong")
	}
}

func TestEAComputation(t *testing.T) {
	p := MustAssemble("t", KindCompute, "ldg r1, [r2+256]\nstg [r3-8], r1\nexit")
	th := &Thread{}
	th.Regs[2] = 0x1000
	th.Regs[3] = 0x2000
	if got := EA(&p.Code[0], th); got != 0x1100 {
		t.Fatalf("EA = %#x, want 0x1100", got)
	}
	if got := EA(&p.Code[1], th); got != 0x1FF8 {
		t.Fatalf("EA = %#x, want 0x1FF8", got)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Opcode]Class{
		OpFAdd: ClassALU, OpFSin: ClassSFU, OpLdGlobal: ClassMem,
		OpTex4: ClassTex, OpZLd: ClassROP, OpBra: ClassCtrl, OpAttr4: ClassMem,
	}
	for op, want := range cases {
		if ClassOf(op) != want {
			t.Fatalf("class(%d) = %v, want %v", op, ClassOf(op), want)
		}
	}
}

func TestProgramMetadata(t *testing.T) {
	p := MustAssemble("t", KindFragment, `
		attr4 r0, 0
		attr4 r4, 1
		tex4  r8, 2, r4, r5
		pack4 r12, r8
		fbst  r12
		exit
	`)
	if p.InSlots != 2 {
		t.Fatalf("in slots = %d, want 2", p.InSlots)
	}
	if p.Units != 3 {
		t.Fatalf("units = %d, want 3", p.Units)
	}
	if p.RegsUsed < 16 {
		t.Fatalf("regs = %d, want >= 16 (r12..r15 written by pack4 source span)", p.RegsUsed)
	}
	if !strings.Contains(p.String(), "fragment") {
		t.Fatal("stringer wrong")
	}
}

func TestCompareOps(t *testing.T) {
	for _, tc := range []struct {
		cmp  Cmp
		a, b float32
		want bool
	}{
		{CmpLT, 1, 2, true}, {CmpLE, 2, 2, true}, {CmpGT, 3, 2, true},
		{CmpGE, 2, 3, false}, {CmpEQ, 2, 2, true}, {CmpNE, 2, 2, false},
	} {
		if compareF(tc.cmp, tc.a, tc.b) != tc.want {
			t.Fatalf("compareF(%v,%v,%v) != %v", tc.cmp, tc.a, tc.b, tc.want)
		}
	}
}
