package shader

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Assemble parses EIR assembly text into a Program. Syntax:
//
//	; comment                      // comment
//	label:
//	    [@p0|@!p1] mnemonic operands
//
// Operands: rN (register), pN (predicate), %sreg, numeric immediates
// (integer or float depending on the opcode), [rN+off] memory operands,
// and label names for bra/ssy.
func Assemble(name string, kind Kind, src string) (*Program, error) {
	p := &Program{Name: name, Kind: kind, Labels: make(map[string]uint32)}

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly followed by an instruction on the same line).
		for {
			if i := strings.Index(line, ":"); i >= 0 && isIdent(line[:i]) {
				lbl := line[:i]
				if _, dup := p.Labels[lbl]; dup {
					return nil, fmt.Errorf("%s:%d: duplicate label %q", name, ln+1, lbl)
				}
				p.Labels[lbl] = uint32(len(p.Code))
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		in, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
		}
		p.Code = append(p.Code, in)
	}

	// Resolve labels.
	for i := range p.Code {
		in := &p.Code[i]
		if in.Op == OpBra || in.Op == OpSSY {
			pc, ok := p.Labels[in.label]
			if !ok {
				return nil, fmt.Errorf("%s: undefined label %q", name, in.label)
			}
			in.Target = pc
			in.label = ""
		}
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

func stripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

type opSpec struct {
	op    Opcode
	form  string // operand form, see parseInstr
	isInt bool   // integer immediate encoding
}

var mnemonics = map[string]opSpec{
	"nop":  {OpNop, "", false},
	"mov":  {OpFMov, "da", false},
	"add":  {OpFAdd, "dab", false},
	"sub":  {OpFSub, "dab", false},
	"mul":  {OpFMul, "dab", false},
	"div":  {OpFDiv, "dab", false},
	"min":  {OpFMin, "dab", false},
	"max":  {OpFMax, "dab", false},
	"mad":  {OpFMad, "dabc", false},
	"abs":  {OpFAbs, "da", false},
	"neg":  {OpFNeg, "da", false},
	"flr":  {OpFFlr, "da", false},
	"frc":  {OpFFrc, "da", false},
	"rcp":  {OpFRcp, "da", false},
	"rsq":  {OpFRsq, "da", false},
	"sqrt": {OpFSqrt, "da", false},
	"sin":  {OpFSin, "da", false},
	"cos":  {OpFCos, "da", false},
	"ex2":  {OpFEx2, "da", false},
	"lg2":  {OpFLg2, "da", false},

	"iadd": {OpIAdd, "dab", true},
	"isub": {OpISub, "dab", true},
	"imul": {OpIMul, "dab", true},
	"imad": {OpIMad, "dabc", true},
	"imin": {OpIMin, "dab", true},
	"imax": {OpIMax, "dab", true},
	"and":  {OpIAnd, "dab", true},
	"or":   {OpIOr, "dab", true},
	"xor":  {OpIXor, "dab", true},
	"shl":  {OpIShl, "dab", true},
	"shr":  {OpIShr, "dab", true},

	"cvt.f2i": {OpCvtFI, "da", false},
	"cvt.i2f": {OpCvtIF, "da", true},

	"selp": {OpSelp, "dabp", false},

	"bra":  {OpBra, "L", false},
	"ssy":  {OpSSY, "L", false},
	"exit": {OpExit, "", false},
	"kill": {OpKill, "", false},
	"bar":  {OpBar, "", false},

	"movs": {OpMovS, "ds", false},

	"ldg":      {OpLdGlobal, "dm", true},
	"stg":      {OpStGlobal, "ma", true},
	"lds":      {OpLdShared, "dm", true},
	"sts":      {OpStShared, "ma", true},
	"ldc":      {OpLdConst, "dm", true},
	"atom.add": {OpAtomAdd, "dma", true},

	"attr4": {OpAttr4, "dS", false},
	"out4":  {OpOut4, "Sa", false},
	"tex4":  {OpTex4, "dSab", false},
	"zld":   {OpZLd, "d", false},
	"zst":   {OpZSt, "a", false},
	"fbld":  {OpFBLd, "d", false},
	"fbst":  {OpFBSt, "a", false},
	"pack4": {OpPack4, "da", false},
	"unpk4": {OpUnpk4, "da", false},
}

// parseInstr parses one instruction line (no label, already trimmed).
func parseInstr(line string) (Instr, error) {
	in := Instr{Pred: -1}

	// Predication prefix.
	if strings.HasPrefix(line, "@") {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return in, fmt.Errorf("predicate with no instruction: %q", line)
		}
		pred := line[1:sp]
		line = strings.TrimSpace(line[sp:])
		if strings.HasPrefix(pred, "!") {
			in.Neg = true
			pred = pred[1:]
		}
		pi, err := parsePred(pred)
		if err != nil {
			return in, err
		}
		in.Pred = int8(pi)
	}

	// Mnemonic (with optional .cmp.type suffix for setp).
	var mn, rest string
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		mn, rest = line[:sp], strings.TrimSpace(line[sp:])
	} else {
		mn = line
	}

	if strings.HasPrefix(mn, "setp.") {
		parts := strings.Split(mn, ".")
		if len(parts) != 3 {
			return in, fmt.Errorf("bad setp mnemonic %q", mn)
		}
		var cmp Cmp
		switch parts[1] {
		case "lt":
			cmp = CmpLT
		case "le":
			cmp = CmpLE
		case "gt":
			cmp = CmpGT
		case "ge":
			cmp = CmpGE
		case "eq":
			cmp = CmpEQ
		case "ne":
			cmp = CmpNE
		default:
			return in, fmt.Errorf("bad comparison %q", parts[1])
		}
		in.Cmp = cmp
		isInt := false
		switch parts[2] {
		case "f":
			in.Op = OpSetpF
		case "i":
			in.Op = OpSetpI
			isInt = true
		default:
			return in, fmt.Errorf("bad setp type %q", parts[2])
		}
		ops := splitOperands(rest)
		if len(ops) != 3 {
			return in, fmt.Errorf("setp wants 3 operands, got %d", len(ops))
		}
		pi, err := parsePred(ops[0])
		if err != nil {
			return in, err
		}
		in.Dst = uint8(pi)
		if in.A, err = parseSrc(ops[1], isInt); err != nil {
			return in, err
		}
		if in.B, err = parseSrc(ops[2], isInt); err != nil {
			return in, err
		}
		return in, nil
	}

	spec, ok := mnemonics[mn]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mn)
	}
	in.Op = spec.op
	ops := splitOperands(rest)

	oi := 0
	next := func() (string, error) {
		if oi >= len(ops) {
			return "", fmt.Errorf("%s: missing operand %d", mn, oi+1)
		}
		s := ops[oi]
		oi++
		return s, nil
	}

	for _, f := range spec.form {
		tok, err := next()
		if err != nil {
			return in, err
		}
		switch f {
		case 'd': // destination register
			r, err := parseReg(tok)
			if err != nil {
				return in, err
			}
			in.Dst = r
		case 'a', 'b', 'c': // source operands
			s, err := parseSrc(tok, spec.isInt)
			if err != nil {
				return in, err
			}
			switch f {
			case 'a':
				in.A = s
			case 'b':
				in.B = s
			default:
				in.C = s
			}
		case 'p': // trailing predicate operand (selp)
			pi, err := parsePred(tok)
			if err != nil {
				return in, err
			}
			in.Slot = uint8(pi)
		case 'm': // memory operand [rN+off] or [imm]
			base, off, err := parseMem(tok)
			if err != nil {
				return in, err
			}
			in.B = base
			in.Off = off
		case 'L': // label
			if !isIdent(tok) {
				return in, fmt.Errorf("bad label %q", tok)
			}
			in.label = tok
		case 's': // special register
			sr, ok := sregNames[tok]
			if !ok {
				return in, fmt.Errorf("unknown special register %q", tok)
			}
			in.Slot = uint8(sr)
		case 'S': // slot / unit immediate
			v, err := strconv.Atoi(tok)
			if err != nil || v < 0 || v > 255 {
				return in, fmt.Errorf("bad slot %q", tok)
			}
			in.Slot = uint8(v)
		}
	}
	if oi != len(ops) {
		return in, fmt.Errorf("%s: too many operands", mn)
	}
	return in, nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parsePred(s string) (int, error) {
	if len(s) < 2 || s[0] != 'p' {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumPregs {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	return n, nil
}

func parseSrc(s string, isInt bool) (Src, error) {
	if len(s) > 1 && s[0] == 'r' {
		if r, err := parseReg(s); err == nil {
			return R(r), nil
		}
	}
	// Immediate.
	if isInt && !strings.ContainsAny(s, ".eE") {
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return Src{}, fmt.Errorf("bad operand %q", s)
		}
		return Src{Imm: uint32(int32(v)), IsImm: true}, nil
	}
	f, err := strconv.ParseFloat(s, 32)
	if err != nil {
		return Src{}, fmt.Errorf("bad operand %q", s)
	}
	return Src{Imm: math.Float32bits(float32(f)), IsImm: true}, nil
}

// parseMem parses [rN], [rN+off], [rN-off] or [off].
func parseMem(s string) (Src, int32, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return Src{}, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return Src{}, 0, fmt.Errorf("empty memory operand")
	}
	if inner[0] != 'r' {
		// pure immediate address
		v, err := strconv.ParseInt(inner, 0, 64)
		if err != nil {
			return Src{}, 0, fmt.Errorf("bad memory operand %q", s)
		}
		return Src{Imm: 0, IsImm: true}, int32(v), nil
	}
	// rN with optional +/- offset
	sign := int32(1)
	idx := strings.IndexAny(inner, "+-")
	regPart, offPart := inner, ""
	if idx > 0 {
		regPart = strings.TrimSpace(inner[:idx])
		offPart = strings.TrimSpace(inner[idx+1:])
		if inner[idx] == '-' {
			sign = -1
		}
	}
	r, err := parseReg(regPart)
	if err != nil {
		return Src{}, 0, err
	}
	var off int32
	if offPart != "" {
		v, err := strconv.ParseInt(offPart, 0, 32)
		if err != nil {
			return Src{}, 0, fmt.Errorf("bad offset %q", offPart)
		}
		off = sign * int32(v)
	}
	return R(r), off, nil
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
		// Quad sources: out4/pack4 read a..a+3, tex4 reads u and v regs.
		switch in.Op {
		case OpOut4, OpPack4, OpFBSt:
			if !in.A.IsImm {
				touch(int(in.A.Reg) + 3)
			}
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
		switch in.Op {
		case OpOut4, OpPack4, OpFBSt, OpZSt:
			// zst is not in computeMeta's quad list, so its quad may run
			// past the file; the bits that would are dropped.
			if !in.A.IsImm {
				for r := int(in.A.Reg); r < int(in.A.Reg)+4 && r < NumRegs; r++ {
					d.Hazard |= 1 << r
				}
			}
		}
	}
}

// usesSrcReg is a conservative check: register r0 as source counts only
// for opcodes that actually read sources (everything except pure-control).
func usesSrcReg(in Instr) bool {
	switch in.Op {
	case OpNop, OpBra, OpSSY, OpExit, OpKill, OpBar, OpMovS, OpZLd, OpFBLd, OpAttr4:
		return false
	}
	return true
}

func (p *Program) validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("shader %q: empty program", p.Name)
	}
	for pc, in := range p.Code {
		if in.Op >= opCount {
			return fmt.Errorf("shader %q pc %d: bad opcode", p.Name, pc)
		}
		if (in.Op == OpBra || in.Op == OpSSY) && in.Target >= uint32(len(p.Code)) {
			return fmt.Errorf("shader %q pc %d: branch target out of range", p.Name, pc)
		}
		// Quad operands must end inside the register file: the executor
		// indexes Regs[r+3] unchecked. The source list is computeMeta's
		// (fbst reads one register but is accounted as a quad), which
		// also keeps RegsUsed <= NumRegs.
		if w := in.DstWidth(); int(in.Dst)+w > NumRegs {
			return fmt.Errorf("shader %q pc %d: destination r%d..r%d runs past r%d", p.Name, pc, in.Dst, int(in.Dst)+w-1, NumRegs-1)
		}
		switch in.Op {
		case OpOut4, OpPack4, OpFBSt:
			if !in.A.IsImm && int(in.A.Reg)+4 > NumRegs {
				return fmt.Errorf("shader %q pc %d: source r%d..r%d runs past r%d", p.Name, pc, in.A.Reg, int(in.A.Reg)+3, NumRegs-1)
			}
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
		switch in.Op {
		case OpOut4:
			if p.Kind == KindCompute {
				return fmt.Errorf("shader %q pc %d: out4 in compute shader", p.Name, pc)
			}
		case OpZLd, OpZSt, OpFBLd, OpFBSt:
			if p.Kind != KindFragment {
				return fmt.Errorf("shader %q pc %d: ROP op outside fragment shader", p.Name, pc)
			}
		}
	}
	return nil
}
