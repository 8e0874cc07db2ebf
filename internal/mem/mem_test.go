package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	buf := make([]byte, 16)
	m.Read(0x1000, buf)
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatal("unwritten memory must read as zero")
	}
	if m.PageCount() != 0 {
		t.Fatal("reads must not materialize pages")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("hello, emerald")
	m.Write(0x2FFA, data) // straddles a page boundary
	got := make([]byte, len(data))
	m.Read(0x2FFA, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
	if m.PageCount() != 2 {
		t.Fatalf("page count = %d, want 2 (straddle)", m.PageCount())
	}
}

func TestMemoryTypedAccessors(t *testing.T) {
	m := NewMemory()
	m.WriteU32(64, 0xDEADBEEF)
	if m.ReadU32(64) != 0xDEADBEEF {
		t.Fatal("u32 round trip failed")
	}
	m.WriteU64(128, 0x0123456789ABCDEF)
	if m.ReadU64(128) != 0x0123456789ABCDEF {
		t.Fatal("u64 round trip failed")
	}
	m.WriteF32(256, 3.5)
	if m.ReadF32(256) != 3.5 {
		t.Fatal("f32 round trip failed")
	}
}

// Property: last write wins, for arbitrary overlapping writes.
func TestMemoryLastWriteWins(t *testing.T) {
	f := func(addr uint16, a, b byte) bool {
		m := NewMemory()
		m.Write(uint64(addr), []byte{a})
		m.Write(uint64(addr), []byte{b})
		got := make([]byte, 1)
		m.Read(uint64(addr), got)
		return got[0] == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a write followed by a read of the same span returns the data,
// regardless of page straddling.
func TestMemoryWriteReadProperty(t *testing.T) {
	f := func(addr uint32, data []byte) bool {
		if len(data) > 3*PageSize {
			data = data[:3*PageSize]
		}
		m := NewMemory()
		m.Write(uint64(addr), data)
		got := make([]byte, len(data))
		m.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPageEnumeration(t *testing.T) {
	m := NewMemory()
	m.Write(0, []byte{1})
	m.Write(PageSize*5, []byte{2})
	pages := m.Pages()
	if len(pages) != 2 {
		t.Fatalf("pages = %v", pages)
	}
	if m.PageData(5) == nil || m.PageData(99) != nil {
		t.Fatal("PageData lookup broken")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(2)
	a := &Request{Addr: 1}
	b := &Request{Addr: 2}
	c := &Request{Addr: 3}
	if !q.Push(a) || !q.Push(b) {
		t.Fatal("pushes under capacity must succeed")
	}
	if q.Push(c) {
		t.Fatal("push over capacity must fail")
	}
	if q.Peek() != a {
		t.Fatal("peek should return oldest")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != nil {
		t.Fatal("pop order wrong")
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 1000; i++ {
		if !q.Push(&Request{Addr: uint64(i)}) {
			t.Fatal("unbounded queue rejected push")
		}
	}
	if q.Len() != 1000 || q.Full() {
		t.Fatal("unbounded queue accounting wrong")
	}
}

// TestQueueDrainTo is the backpressure contract of every port: with
// room for k of n, exactly the k oldest move, in order; the rest stay,
// in order; nothing is dropped; and the per-cycle path allocates
// nothing.
func TestQueueDrainTo(t *testing.T) {
	const n = 5
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{Addr: uint64(i)}
	}
	for _, tc := range []struct{ dstCap, dstHeld, moved int }{
		{0, 0, n}, // unbounded destination takes everything
		{8, 0, n}, // room to spare
		{3, 0, 3}, // room for k < n
		{4, 3, 1}, // partly full
		{2, 2, 0}, // full: nothing moves
	} {
		src, dst := NewQueue(0), NewQueue(tc.dstCap)
		held := &Request{Addr: 99}
		for i := 0; i < tc.dstHeld; i++ {
			dst.Push(held)
		}
		for _, r := range reqs {
			src.Push(r)
		}
		src.DrainTo(dst)
		if src.Len() != n-tc.moved || dst.Len() != tc.dstHeld+tc.moved {
			t.Fatalf("%+v: src %d, dst %d after drain", tc, src.Len(), dst.Len())
		}
		for i := 0; i < tc.moved; i++ {
			if r := dst.At(tc.dstHeld + i); r != reqs[i] {
				t.Fatalf("%+v: dst[%d] = request %d, want %d", tc, i, r.Addr, i)
			}
		}
		for i := 0; i < src.Len(); i++ {
			if r := src.At(i); r != reqs[tc.moved+i] {
				t.Fatalf("%+v: src[%d] = request %d, want %d", tc, i, r.Addr, tc.moved+i)
			}
		}
		if held := pinned(src); held != src.Len() {
			t.Fatalf("%+v: backing array pins %d requests, %d queued", tc, held, src.Len())
		}
	}

	// Pop vacates its slot too.
	q := NewQueue(0)
	q.Push(reqs[0])
	q.Pop()
	if pinned(q) != 0 {
		t.Fatal("Pop left the popped request pinned in the backing array")
	}

	// Steady state: a port that drains one request per cycle.
	src, dst := NewQueue(4), NewQueue(2)
	if a := testing.AllocsPerRun(100, func() {
		src.Push(reqs[0])
		src.Push(reqs[1])
		src.Push(reqs[2])
		src.DrainTo(dst)
		dst.Pop()
		src.DrainTo(dst)
		dst.Pop()
		dst.Pop()
	}); a != 0 {
		t.Fatalf("drain path allocates %v times per run", a)
	}
	if src.Len() != 0 || dst.Len() != 0 {
		t.Fatalf("steady-state drain lost track: src %d, dst %d", src.Len(), dst.Len())
	}
}

func TestClientClassification(t *testing.T) {
	if ClientCPU.IsIP() {
		t.Fatal("CPU is not an IP")
	}
	for _, c := range []Client{ClientGPU, ClientDisplay, ClientDMA} {
		if !c.IsIP() {
			t.Fatalf("%v should be an IP", c)
		}
	}
	if ClientGPU.String() != "gpu" || Read.String() != "read" || Write.String() != "write" {
		t.Fatal("stringers broken")
	}
}

func TestRequestComplete(t *testing.T) {
	r := &Request{Addr: 0x40, Size: 64, IssuedAt: 10}
	r.Complete(25)
	if !r.Done || r.DoneAt != 25 {
		t.Fatal("complete did not mark request")
	}
}

// pinned counts the requests a queue's backing array still references.
func pinned(q *Queue) int {
	n := 0
	for _, r := range q.r.buf {
		if r != nil {
			n++
		}
	}
	return n
}
