// Package asm is the text front end of the simulator's two assemblers,
// EIR's (internal/shader) and the CPU's (internal/cpu). It holds the
// syntax they share: comments, labels, a mnemonic and its
// comma-separated operands, registers, integers and memory operands.
// Each ISA keeps one table of its opcodes, naming each opcode's
// mnemonic and its operands as a string of letters that Operands walks.
package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// Line is one instruction line of a source text.
type Line struct {
	N    int    // line number in the source, from 1
	Text string // the instruction, trimmed, without labels or comment
}

// Lines splits src into its instruction lines. A comment runs from ";"
// or "//" to the end of its line. A line may begin with any number of
// "name:" labels, each naming the index in the returned slice of the
// instruction that follows it. Errors begin "name:N:".
func Lines(name, src string) ([]Line, map[string]uint32, error) {
	var lines []Line
	labels := make(map[string]uint32)
	for n, text := range strings.Split(src, "\n") {
		if i := strings.Index(text, ";"); i >= 0 {
			text = text[:i]
		}
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		for {
			i := strings.Index(text, ":")
			if i < 0 || !IsIdent(text[:i]) {
				break
			}
			if _, dup := labels[text[:i]]; dup {
				return nil, nil, fmt.Errorf("%s:%d: duplicate label %q", name, n+1, text[:i])
			}
			labels[text[:i]] = uint32(len(lines))
			text = strings.TrimSpace(text[i+1:])
		}
		if text != "" {
			lines = append(lines, Line{N: n + 1, Text: text})
		}
	}
	return lines, labels, nil
}

// Fields splits an instruction into its mnemonic, which ends at the
// first space or tab, and its comma-separated operands, each trimmed.
func Fields(text string) (mnemonic string, ops []string) {
	sp := strings.IndexAny(text, " \t")
	if sp < 0 {
		return text, nil
	}
	rest := strings.TrimSpace(text[sp:])
	if rest == "" {
		return text[:sp], nil
	}
	ops = strings.Split(rest, ",")
	for i := range ops {
		ops[i] = strings.TrimSpace(ops[i])
	}
	return text[:sp], ops
}

// Operands walks form, an opcode's operand letters, calling each with
// every letter and the operand in its place; it stops at the first
// error, and reports an operand that is missing or one too many.
func Operands(mnemonic, form string, ops []string, each func(letter byte, op string) error) error {
	for i := 0; i < len(form); i++ {
		if i == len(ops) {
			return fmt.Errorf("%s: missing operand %d", mnemonic, i+1)
		}
		if err := each(form[i], ops[i]); err != nil {
			return err
		}
	}
	if len(ops) > len(form) {
		return fmt.Errorf("%s: too many operands", mnemonic)
	}
	return nil
}

// IsIdent reports whether s is a label name: a letter or underscore,
// then letters, digits and underscores.
func IsIdent(s string) bool {
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

// Reg parses a register rK of a file of n: 0 <= K < n.
func Reg(s string, n int) (uint8, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	k, err := strconv.Atoi(s[1:])
	if err != nil || k < 0 || k >= n {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(k), nil
}

// Int parses an integer immediate, decimal or with a 0x, 0o or 0b
// prefix, keeping its low 32 bits.
func Int(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return int32(v), nil
}

// Mem parses a memory operand [rK], [rK+off] or [rK-off], its base a
// register of a file of regs and its offset a 32-bit integer. Where
// absolute is set it also takes [off], an address, and reports base -1.
func Mem(s string, regs int, absolute bool) (base int, off int32, err error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if absolute && inner != "" && inner[0] != 'r' {
		off, err = Int(inner)
		return -1, off, err
	}
	reg, offset, sign := inner, "", int32(1)
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		reg, offset = strings.TrimSpace(inner[:i]), strings.TrimSpace(inner[i+1:])
		if inner[i] == '-' {
			sign = -1
		}
	}
	r, err := Reg(reg, regs)
	if err != nil {
		return 0, 0, fmt.Errorf("bad memory operand %q: %v", s, err)
	}
	if offset != "" {
		v, err := strconv.ParseInt(offset, 0, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset %q", offset)
		}
		off = sign * int32(v)
	}
	return int(r), off, nil
}
