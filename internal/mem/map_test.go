package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// hostAsset returns n bytes of a pattern with no zero byte, and a check
// that fails the test if anything wrote them: every test of Map ends
// with it, so a write that reaches the host slice fails the test.
func hostAsset(t *testing.T, n int) (host []byte, untouched func()) {
	t.Helper()
	host = make([]byte, n)
	for i := range host {
		host[i] = byte(i*7+i/PageSize) | 1
	}
	pristine := bytes.Clone(host)
	return host, func() {
		t.Helper()
		if i := firstDiff(host, pristine); i >= 0 {
			t.Fatalf("the host slice was written: byte %d is %#x, was %#x", i, host[i], pristine[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// mappedAt reports whether page idx of m points into host.
func mappedAt(m *Memory, idx uint64, host []byte) bool {
	p := m.pageFor(idx, false)
	for off := 0; off+PageSize <= len(host); off += PageSize {
		if p == (*page)(host[off:]) {
			return true
		}
	}
	return false
}

func readBack(m *Memory, addr uint64, n int) []byte {
	got := make([]byte, n)
	m.Read(addr, got)
	return got
}

// TestMapWritesCopyOnWrite: a Write, a WriteU32 and a WriteF32 to three
// mapped pages each land in a private copy of their page, which keeps
// the rest of the mapped bytes; the host slice is never written.
func TestMapWritesCopyOnWrite(t *testing.T) {
	const base = 0x40_0000
	host, untouched := hostAsset(t, 3*PageSize)
	m := NewMemory()
	m.Map(base, host)
	for i := uint64(0); i < 3; i++ {
		if !mappedAt(m, base/PageSize+i, host) {
			t.Fatalf("page %d was copied, want mapped", i)
		}
	}
	if !bytes.Equal(readBack(m, base, len(host)), host) {
		t.Fatal("mapped memory does not read as the host slice")
	}

	m.Write(base+10, []byte{0, 0, 0})
	m.WriteU32(base+PageSize+64, 0xDEADBEEF)
	m.WriteF32(base+2*PageSize+4092, 2.5)
	untouched()

	want := bytes.Clone(host)
	copy(want[10:], []byte{0, 0, 0})
	binary.LittleEndian.PutUint32(want[PageSize+64:], 0xDEADBEEF)
	binary.LittleEndian.PutUint32(want[2*PageSize+4092:], math.Float32bits(2.5))
	if i := firstDiff(readBack(m, base, len(want)), want); i >= 0 {
		t.Fatalf("memory byte %d differs after the writes", i)
	}
	for i := uint64(0); i < 3; i++ {
		if mappedAt(m, base/PageSize+i, host) {
			t.Fatalf("page %d still points into the host slice after a write", i)
		}
	}
	// A second write goes to the copy the first one made.
	m.WriteU32(base+PageSize+64, 7)
	if m.ReadU32(base+PageSize+64) != 7 {
		t.Fatal("second write lost")
	}
	untouched()
}

// TestMapViewWriteAfterCachedRead: a View that cached a mapped page for
// reads must not write through that cached pointer.
func TestMapViewWriteAfterCachedRead(t *testing.T) {
	const base = 0x10_0000
	host, untouched := hostAsset(t, 2*PageSize)
	m := NewMemory()
	m.Map(base, host)
	v := NewView(m)
	if got, want := v.ReadU32(base+8), binary.LittleEndian.Uint32(host[8:]); got != want {
		t.Fatalf("view read %#x, want %#x", got, want)
	}
	v.WriteU32(base+8, 0x01020304)
	untouched()
	if v.ReadU32(base+8) != 0x01020304 || m.ReadU32(base+8) != 0x01020304 {
		t.Fatal("view write not visible through the view and the memory")
	}
	v.ReadF32(base + PageSize)
	v.WriteF32(base+PageSize+16, -1)
	untouched()
	if v.ReadF32(base+PageSize+16) != -1 || m.ReadF32(base+PageSize+16) != -1 {
		t.Fatal("view float write not visible")
	}
	// A straddling write crosses both (now private) pages.
	v.WriteU32(base+PageSize-2, 0xAABBCCDD)
	untouched()
	if m.ReadU32(base+PageSize-2) != 0xAABBCCDD {
		t.Fatal("straddling view write lost")
	}
}

// TestMapPartialPages: a mapping that starts and ends inside a page
// copies those two pages, keeps what they held outside the range, and
// maps only the whole pages between them.
func TestMapPartialPages(t *testing.T) {
	const base = 0x20_0000 + 0x100 // inside page 0x200
	host, untouched := hostAsset(t, 3*PageSize)
	m := NewMemory()
	m.Write(base-4, []byte{9, 9, 9, 9})          // before the range, same page
	m.Write(base+3*PageSize, []byte{8, 8, 8, 8}) // after the range, same page
	m.Map(base, host)
	first, last := uint64(base/PageSize), uint64((base+3*PageSize)/PageSize)
	if last-first != 3 {
		t.Fatalf("range covers pages %#x..%#x, want four pages", first, last)
	}
	if mappedAt(m, first, host) || mappedAt(m, last, host) {
		t.Fatal("a partial page points into the host slice")
	}
	if m.pageFor(first+1, false) != (*page)(host[PageSize-0x100:]) || m.pageFor(first+2, false) != (*page)(host[2*PageSize-0x100:]) {
		t.Fatal("a whole page of the range was copied, want mapped")
	}
	if !bytes.Equal(readBack(m, base, len(host)), host) {
		t.Fatal("memory does not read as the host slice")
	}
	if !bytes.Equal(readBack(m, base-4, 4), []byte{9, 9, 9, 9}) || !bytes.Equal(readBack(m, base+3*PageSize, 4), []byte{8, 8, 8, 8}) {
		t.Fatal("bytes outside the range changed")
	}
	if m.PageCount() != 4 {
		t.Fatalf("PageCount = %d, want 4", m.PageCount())
	}
	for a := uint64(base); a < base+uint64(len(host)); a += 512 {
		m.WriteU32(a, 0)
	}
	untouched()
}

// TestMapSnapshotResetRestore: a snapshot holds mapped pages as ordinary
// pages, Reset drops them, and a restore brings back the same bytes as
// private pages; writes after each step leave the host slice alone.
func TestMapSnapshotResetRestore(t *testing.T) {
	const base = 0x60_0000
	host, untouched := hostAsset(t, 4*PageSize)
	m := NewMemory()
	m.Map(base, host)
	m.WriteU32(base+PageSize, 0x55) // one page copied, three still mapped
	want := readBack(m, base, len(host))
	snap := m.SnapshotPages()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d pages, want 4", len(snap))
	}
	for idx, p := range snap {
		if !bytes.Equal(p, want[(idx-base/PageSize)*PageSize:][:PageSize]) {
			t.Fatalf("snapshot page %#x differs", idx)
		}
	}

	m.Reset()
	if m.PageCount() != 0 || m.ReadU32(base) != 0 {
		t.Fatal("Reset kept a mapped page")
	}
	for idx, p := range snap { // a restore by copy (Checkpoint.RestoreMemory maps instead)
		m.Write(idx*PageSize, p)
	}
	if m.PageCount() != 4 || !bytes.Equal(readBack(m, base, len(host)), want) {
		t.Fatal("restored memory differs from the snapshot")
	}
	for _, p := range snap {
		clear(p) // neither the memory nor the host slice shares the snapshot
	}
	if !bytes.Equal(readBack(m, base, len(host)), want) {
		t.Fatal("restored memory aliases the snapshot")
	}
	for a := uint64(base); a < base+uint64(len(host)); a += PageSize {
		m.WriteU32(a, 0)
	}
	untouched()

	m.Reset() // a reset memory maps afresh
	m.Map(base, host)
	if !mappedAt(m, base/PageSize, host) || m.PageCount() != 4 {
		t.Fatal("pages not mapped after Reset")
	}
	m.WriteU32(base, 0)
	untouched()
}

// TestMapPageCount: mapped pages count as present pages; copying one on
// its first write does not change the count, nor does mapping over a
// page that is already present (that page is written instead).
func TestMapPageCount(t *testing.T) {
	host, untouched := hostAsset(t, 5*PageSize)
	m := NewMemory()
	m.WriteU32(0x3000, 1) // page 3 present before the mapping
	m.Map(0, host)
	if m.PageCount() != 5 {
		t.Fatalf("PageCount = %d, want 5", m.PageCount())
	}
	if mappedAt(m, 3, host) {
		t.Fatal("a present page was replaced by the mapping")
	}
	if !bytes.Equal(readBack(m, 0, len(host)), host) {
		t.Fatal("the present page was not written by the mapping")
	}
	m.WriteU32(0, 2)
	if m.PageCount() != 5 {
		t.Fatalf("PageCount = %d after a copy-on-write, want 5", m.PageCount())
	}
	n := 0
	m.eachPage(func(uint64, *page) { n++ })
	if n != 5 {
		t.Fatalf("eachPage visits %d pages, want 5", n)
	}
	m.WriteU32(3*PageSize, 3)
	untouched()
}

// TestMapOneSliceInTwoMemories: two memories mapping one host slice do
// not see each other's writes, and the host slice sees neither.
func TestMapOneSliceInTwoMemories(t *testing.T) {
	const base = 0x8000
	host, untouched := hostAsset(t, 2*PageSize)
	a, b := NewMemory(), NewMemory()
	a.Map(base, host)
	b.Map(base, host)
	a.WriteU32(base+8, 0)
	b.Write(base+PageSize+8, []byte{0, 0})
	untouched()
	if got, want := b.ReadU32(base+8), binary.LittleEndian.Uint32(host[8:]); got != want {
		t.Fatalf("a's write shows in b: %#x, want %#x", got, want)
	}
	if got := readBack(a, base+PageSize+8, 2); !bytes.Equal(got, host[PageSize+8:][:2]) {
		t.Fatalf("b's write shows in a: %v", got)
	}
	if a.ReadU32(base+8) != 0 || !bytes.Equal(readBack(b, base+PageSize+8, 2), []byte{0, 0}) {
		t.Fatal("a memory lost its own write")
	}
}
