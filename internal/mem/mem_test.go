package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
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
	var pages []uint64
	m.eachPage(func(idx uint64, _ *page) { pages = append(pages, idx) })
	if len(pages) != 2 || pages[0] != 0 || pages[1] != 5 {
		t.Fatalf("pages = %v, want [0 5]", pages)
	}
	if m.pageFor(5, false) == &zeroPage || m.pageFor(99, false) != &zeroPage {
		t.Fatal("page lookup broken")
	}
}

// TestDirectoryAllocatesOnlyTouchedNodes: a fresh memory with one
// write in each of six 2 MB regions below 4 GB, every one in its own
// 512 MB region, and one write near 2^63 allocates its seven pages and
// at most 96 KB of directory: the root and twenty 4 KB nodes. A
// directory of 64 KB nodes costs 512 KB or more here. Best of five under
// GOMAXPROCS(1), as gpu.TestWarmKernelLaunchAllocatesOnlyBookkeeping
// does: a runtime goroutine's allocation shows in one run only.
func TestDirectoryAllocatesOnlyTouchedNodes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addrs := []uint64{1<<63 - PageSize}
	for k := uint64(0); k < 6; k++ {
		addrs = append(addrs, k<<29|k<<21|0x40)
	}
	fresh := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := NewMemory()
		for _, a := range addrs {
			m.WriteU32(a, 1)
		}
		runtime.ReadMemStats(&after)
		if m.PageCount() != len(addrs) {
			t.Fatalf("%d pages, want %d", m.PageCount(), len(addrs))
		}
		return after.TotalAlloc - before.TotalAlloc - uint64(len(addrs))*PageSize
	}
	best := fresh()
	for i := 0; i < 4; i++ {
		best = min(best, fresh())
	}
	t.Logf("directory: %d bytes", best)
	if best > 96<<10 {
		t.Fatalf("the directory of %d pages allocated %d bytes, budget 96 KB", len(addrs), best)
	}
}

// TestEachPageOrderAcrossLevels writes, in a shuffled order, the pages on
// both sides of every level's slot boundary, and the first and last page
// index: eachPage must visit them all in ascending order.
func TestEachPageOrderAcrossLevels(t *testing.T) {
	want := []uint64{0, 1<<52 - 1}
	for level := 1; level < 6; level++ {
		b := uint64(1) << (level * fanBits)
		want = append(want, b-1, b, b+1, 3*b-1, 3*b)
	}
	slices.Sort(want)
	want = slices.Compact(want)
	m := NewMemory()
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(want)) {
		m.Write(want[i]*PageSize, []byte{byte(i + 1)})
	}
	var got []uint64
	m.eachPage(func(idx uint64, _ *page) { got = append(got, idx) })
	if !slices.Equal(got, want) {
		t.Fatalf("eachPage visited %v, want %v", got, want)
	}
	snap := m.SnapshotPages()
	for _, idx := range want {
		if p, ok := snap[idx]; !ok || p[0] == 0 {
			t.Fatalf("snapshot lacks page %#x", idx)
		}
	}
}

// TestConcurrentFirstTouch: two goroutines write, at once, into a page
// and a leaf neither has materialized, each also into a page of its own
// in that leaf. The racing inserts must settle on one node per slot: no
// write lost, three pages counted. Run it under -race.
func TestConcurrentFirstTouch(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		m := NewMemory()
		base := uint64(iter+1) << 40 // a new interior path every time
		var start, done sync.WaitGroup
		start.Add(1)
		for g := uint64(0); g < 2; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				m.WriteU32(base+4*g, uint32(g+1))
				m.WriteU32(base+(g+1)*PageSize, uint32(g+1))
			}()
		}
		start.Done()
		done.Wait()
		for g := uint64(0); g < 2; g++ {
			if m.ReadU32(base+4*g) != uint32(g+1) || m.ReadU32(base+(g+1)*PageSize) != uint32(g+1) {
				t.Fatalf("iteration %d: goroutine %d's write was lost", iter, g)
			}
		}
		if m.PageCount() != 3 {
			t.Fatalf("iteration %d: %d pages, want 3", iter, m.PageCount())
		}
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
	if ClientGPU.String() != "gpu" {
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
