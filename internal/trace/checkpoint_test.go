package trace

import (
	"bytes"
	"strings"
	"testing"

	"emerald/internal/mem"
)

// scatterMemory materializes enough pages that gob's randomized map
// iteration would almost surely reorder them between encodings if the
// serializer did not sort.
func scatterMemory(t *testing.T) *mem.Memory {
	t.Helper()
	m := mem.NewMemory()
	for i := 0; i < 64; i++ {
		addr := uint64(i) * 7919 * mem.PageSize
		m.WriteU32(addr, uint32(i)*0x9E3779B9+1)
	}
	return m
}

// TestCheckpointDeterministicBytes is the regression test for the
// nondeterministic-serialization bug: encoding Pages as a gob map made
// identical state serialize to different bytes across runs, so digests
// could not key caches. The sorted-page encoding must be byte-stable.
func TestCheckpointDeterministicBytes(t *testing.T) {
	tr := &Trace{}
	tr.Op("Viewport", []uint32{48, 48}, nil)
	m := scatterMemory(t)

	var raws [][]byte
	var digests []string
	for i := 0; i < 4; i++ {
		cp := NewCheckpoint(tr, m, 42, 1)
		raw, err := cp.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cp.Digest()
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
		digests = append(digests, dg)
	}
	for i := 1; i < len(raws); i++ {
		if !bytes.Equal(raws[0], raws[i]) {
			t.Fatalf("encoding %d differs from encoding 0: checkpoint bytes are nondeterministic", i)
		}
		if digests[0] != digests[i] {
			t.Fatalf("digest %d = %s, want %s", i, digests[i], digests[0])
		}
	}
}

// TestRestoreMemoryReconcilesPages is the regression test for the
// stale-page restore bug: restoring into a reused memory must drop
// pages the snapshot lacks, not leave them behind as stale state.
func TestRestoreMemoryReconcilesPages(t *testing.T) {
	src := mem.NewMemory()
	src.WriteU32(0x1000, 0xDEAD_0001)
	cp := NewCheckpoint(&Trace{}, src, 0, 0)

	dst := mem.NewMemory()
	dst.WriteU32(0x1000, 0xFFFF_FFFF)   // will be overwritten
	dst.WriteU32(0x80_0000, 0xBAD_F00D) // page absent from snapshot
	cp.RestoreMemory(dst)

	if got := dst.ReadU32(0x1000); got != 0xDEAD_0001 {
		t.Fatalf("restored page reads %#x, want %#x", got, 0xDEAD_0001)
	}
	if got := dst.ReadU32(0x80_0000); got != 0 {
		t.Fatalf("stale page survived restore: reads %#x, want 0", got)
	}
	if got, want := dst.PageCount(), src.PageCount(); got != want {
		t.Fatalf("restored memory has %d pages, snapshot has %d", got, want)
	}
}

// TestLoadCheckpointRejectsCorruption covers the versioned-header +
// integrity-footer satellite: a torn, truncated, tampered or
// wrong-version file must fail loudly instead of replaying garbage.
func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	tr := &Trace{}
	for f := 0; f < 3; f++ {
		tr.Op("FrameEnd", nil, nil)
	}
	sealed := func(c *Checkpoint) []byte {
		b, err := c.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	raw := sealed(NewCheckpoint(tr, scatterMemory(t), 7, 3))
	if _, err := LoadCheckpoint(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), raw...))
	}
	cases := []struct {
		name string
		data []byte
		want string // part of the error, where it matters which check fired
	}{
		{"empty", nil, ""},
		{"truncated header", mutate(func(b []byte) []byte { return b[:4] }), ""},
		{"torn tail", mutate(func(b []byte) []byte { return b[:len(b)-17] }), ""},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ""},
		{"wrong version", mutate(func(b []byte) []byte { b[len(ckptMagic)] = ckptVersion + 1; return b }), "format version"},
		{"format v2 (carried an op index)", mutate(func(b []byte) []byte { b[len(ckptMagic)] = 2; return b }), "format version 2"},
		{"flipped payload byte", mutate(func(b []byte) []byte { b[ckptHdrLen+10] ^= 0x40; return b }), ""},
		{"flipped digest byte", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }), ""},
		{"raw gob (unversioned legacy)", mutate(func(b []byte) []byte { return b[ckptHdrLen : len(b)-ckptFtrLen] }), ""},
		// Sealed, but with fields no snapshot has: the footer holds,
		// the field checks must not.
		{"frame past the trace", sealed(&Checkpoint{Trace: tr, Frame: 4}), "frame 4"},
		{"page address that overflows", sealed(&Checkpoint{Trace: tr,
			Pages: map[uint64][]byte{1 << 52: make([]byte, mem.PageSize)}}), "past the address space"},
	}
	for _, tc := range cases {
		_, err := LoadCheckpoint(bytes.NewReader(tc.data))
		switch {
		case err == nil:
			t.Errorf("%s: LoadCheckpoint accepted a corrupt file", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: rejected with %q, want an error containing %q", tc.name, err, tc.want)
		default:
			t.Logf("%s: rejected: %v", tc.name, err)
		}
	}
}

// TestFrameHelpers checks the frame-boundary indexing the sampled
// pipeline builds on.
func TestFrameHelpers(t *testing.T) {
	tr := &Trace{}
	tr.Op("Clear", []uint32{0, 1}, nil)
	tr.Op("DrawElements", []uint32{0}, nil) // draw 0, frame 0
	tr.Op("FrameEnd", nil, nil)
	tr.Op("Clear", []uint32{0, 1}, nil)
	tr.Op("FrameEnd", nil, nil) // frame 1: no draws
	tr.Op("DrawElements", []uint32{0}, nil)
	tr.Op("DrawElements", []uint32{0}, nil)
	tr.Op("FrameEnd", nil, nil) // frame 2: draws 1,2

	if got := tr.FrameCount(); got != 3 {
		t.Fatalf("FrameCount = %d, want 3", got)
	}
	draws := tr.FrameDraws()
	want := [][2]int{{0, 1}, {1, 1}, {1, 3}}
	for f, w := range want {
		if draws[f] != w {
			t.Fatalf("FrameDraws[%d] = %v, want %v", f, draws[f], w)
		}
	}
}
