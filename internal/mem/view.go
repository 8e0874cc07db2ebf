package mem

import (
	"encoding/binary"
	"math"
)

// View is a single-goroutine accessor over a Memory that caches the
// most recently touched page, eliding the page-directory walk (six
// dependent loads per access) on the overwhelmingly common case of
// consecutive accesses landing on the same page. The functional-mode
// executors keep one for their fragment-rate memory traffic; the timed
// machine builds one on the stack for each memory instruction (MakeView),
// where the lanes of a warp mostly share a page.
//
// A View caches page *pointers*, which stay valid across concurrent
// materialization (the directory only gains nodes) — but not across
// Memory.Reset or Checkpoint.RestoreMemory, which swap the page set.
// Drop the View when the memory is restored. A page cached for reads
// that was absent or mapped (Memory.Map) is replaced by the first
// write to it; a write through the View itself takes the replacement,
// but a write through another accessor is not seen by this View.
type View struct {
	m    *Memory
	page uint64
	data *[PageSize]byte
	// ro marks an entry cached by a read: it may be the zero page or a
	// mapped page, so the first write to it walks the directory again.
	ro bool
}

// noPage is an impossible page index (addresses are < 2^64, so real
// page indices fit in 52 bits), marking an empty cache.
const noPage = ^uint64(0)

// NewView returns a view over m with a cold cache.
func NewView(m *Memory) *View {
	v := MakeView(m)
	return &v
}

// MakeView is NewView by value, for a view that lives on its user's
// stack.
func MakeView(m *Memory) View { return View{m: m, page: noPage} }

// Memory returns the backing store.
func (v *View) Memory() *Memory { return v.m }

func (v *View) pageFor(page uint64, create bool) *[PageSize]byte {
	if page == v.page && !(create && v.ro) {
		return v.data
	}
	p := v.m.pageFor(page, create)
	v.page, v.data, v.ro = page, p, !create
	return p
}

// Read copies len(p) bytes starting at addr into p.
func (v *View) Read(addr uint64, p []byte) {
	for len(p) > 0 {
		page, off := addr/PageSize, addr%PageSize
		n := copy(p, v.pageFor(page, false)[off:])
		p = p[n:]
		addr += uint64(n)
	}
}

// ReadU32 reads a little-endian uint32.
func (v *View) ReadU32(addr uint64) uint32 {
	if off := addr % PageSize; off+4 <= PageSize {
		return binary.LittleEndian.Uint32(v.pageFor(addr/PageSize, false)[off:])
	}
	return v.m.ReadU32(addr) // page-straddling access; rare
}

// WriteU32 writes a little-endian uint32.
func (v *View) WriteU32(addr uint64, val uint32) {
	if off := addr % PageSize; off+4 <= PageSize {
		binary.LittleEndian.PutUint32(v.pageFor(addr/PageSize, true)[off:], val)
		return
	}
	v.m.WriteU32(addr, val)
	v.page = noPage // the write may have replaced the cached page
}

// ReadF32 reads a little-endian float32.
func (v *View) ReadF32(addr uint64) float32 {
	return math.Float32frombits(v.ReadU32(addr))
}

// WriteF32 writes a little-endian float32.
func (v *View) WriteF32(addr uint64, val float32) {
	v.WriteU32(addr, math.Float32bits(val))
}
