package asm

import (
	"slices"
	"testing"
)

func TestLines(t *testing.T) {
	lines, labels, err := Lines("t", "a: b: nop ; c\n\n  // only\nc:\nx :y\nexit // d")
	if err != nil {
		t.Fatal(err)
	}
	want := []Line{{1, "nop"}, {5, "x :y"}, {6, "exit"}}
	if !slices.Equal(lines, want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	if labels["a"] != 0 || labels["b"] != 0 || labels["c"] != 1 || len(labels) != 3 {
		t.Fatalf("labels = %v", labels)
	}
	if _, _, err := Lines("t", "x: nop\nx: exit"); err == nil || err.Error() != `t:2: duplicate label "x"` {
		t.Fatalf("duplicate label: %v", err)
	}
}

func TestMem(t *testing.T) {
	for _, tc := range []struct {
		s        string
		absolute bool
		base     int
		off      int32
		ok       bool
	}{
		{"[r2]", false, 2, 0, true},
		{"[ r3 + 0x10 ]", false, 3, 16, true},
		{"[r3-4]", false, 3, -4, true},
		{"[r1+]", false, 0, 0, false},
		{"[r1 - ]", false, 0, 0, false},
		{"[r01+4]", false, 0, 0, false},
		{"[r1+-4]", false, 1, -4, true},
		{"[32]", true, -1, 32, true},
		{"[-8]", true, -1, -8, true},
		{"[32]", false, 0, 0, false},
		{"[r16]", false, 0, 0, false},
		{"[r+1]", false, 0, 0, false},
		{"[r1+0x100000000]", false, 0, 0, false},
		{"[]", false, 0, 0, false},
		{"[ ]", true, 0, 0, false},
		{"r1", false, 0, 0, false},
	} {
		base, off, err := Mem(tc.s, 16, tc.absolute)
		if (err == nil) != tc.ok || tc.ok && (base != tc.base || off != tc.off) {
			t.Errorf("Mem(%q, %v) = %d, %d, %v", tc.s, tc.absolute, base, off, err)
		}
	}
}

func TestReg(t *testing.T) {
	for _, tc := range []struct {
		s  string
		k  uint8
		ok bool
	}{
		{"r0", 0, true},
		{"r5", 5, true},
		{"r15", 15, true},
		{"r16", 0, false},
		{"r05", 0, false},
		{"r00", 0, false},
		{"r+5", 0, false},
		{"r-0", 0, false},
		{"r 5", 0, false},
		{"r", 0, false},
		{"5", 0, false},
		{"r99999999999999999999", 0, false},
	} {
		k, err := Reg(tc.s, 16)
		if (err == nil) != tc.ok || tc.ok && k != tc.k {
			t.Errorf("Reg(%q) = %d, %v", tc.s, k, err)
		}
	}
}
