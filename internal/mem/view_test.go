package mem

import "testing"

// TestViewMatchesMemory drives the same access sequence through a View
// and directly through the Memory, including the cases the page cache
// must get right: repeated same-page hits, a write landing on a page
// the view has cached as the shared zero page (must materialize, not
// scribble on the zero page), and reads straddling a page boundary.
func TestViewMatchesMemory(t *testing.T) {
	m := NewMemory()
	v := NewView(m)

	// Read-before-write on a never-materialized page: zero, cached.
	if got := v.ReadU32(0x5000); got != 0 {
		t.Fatalf("cold read = %#x, want 0", got)
	}
	// Write to that same page: the cached zero page must be upgraded.
	v.WriteU32(0x5004, 0xdeadbeef)
	if got := v.ReadU32(0x5004); got != 0xdeadbeef {
		t.Fatalf("read-after-write via view = %#x", got)
	}
	if got := m.ReadU32(0x5004); got != 0xdeadbeef {
		t.Fatalf("read-after-write via memory = %#x", got)
	}
	// The shared zero page itself must stay zero.
	if got := (&zeroPage)[4]; got != 0 {
		t.Fatalf("zero page dirtied: %#x", got)
	}

	// Same-page hit path, then a different page, then back.
	v.WriteF32(0x5010, 3.5)
	v.WriteU32(0x9000, 7)
	if got := v.ReadF32(0x5010); got != 3.5 {
		t.Fatalf("ReadF32 after page switch = %v", got)
	}

	// Writes through the memory are visible through the view: pages are
	// shared arrays, not copies.
	m.WriteU32(0x9004, 42)
	if got := v.ReadU32(0x9004); got != 42 {
		t.Fatalf("memory write not visible through view: %d", got)
	}

	// A page-straddling bulk write reads back through the view.
	src := make([]byte, 3*PageSize/2)
	for i := range src {
		src[i] = byte(i * 7)
	}
	base := uint64(2*PageSize - 100)
	m.Write(base, src)
	dst := make([]byte, len(src))
	v.Read(base, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("bulk round-trip mismatch at %d: %d != %d", i, dst[i], src[i])
		}
	}
}
