package interconnect

import (
	"fmt"
	"testing"

	"emerald/internal/mem"
)

func TestLatencyAndDelivery(t *testing.T) {
	var delivered []*mem.Request
	x := New(Config{Name: "noc", Ports: 1, Latency: 5, Width: 1},
		func(r *mem.Request) bool { delivered = append(delivered, r); return true }, nil)
	r := &mem.Request{Addr: 64}
	x.Push(0, r)
	for c := uint64(0); c < 4; c++ {
		x.Tick(c)
	}
	if len(delivered) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	x.Tick(5)
	if len(delivered) != 1 || delivered[0] != r {
		t.Fatalf("delivered = %v", delivered)
	}
	if x.Transferred() != 1 {
		t.Fatal("transfer count wrong")
	}
}

func TestWidthLimitsThroughput(t *testing.T) {
	var n int
	x := New(Config{Name: "noc", Ports: 4, Latency: 0, Width: 2, Depth: 16},
		func(*mem.Request) bool { n++; return true }, nil)
	for p := 0; p < 4; p++ {
		for i := 0; i < 4; i++ {
			if !x.Push(p, &mem.Request{Addr: uint64(p*100 + i)}) {
				t.Fatal("push failed")
			}
		}
	}
	// 16 requests at width 2: 8 cycles to inject; +1 tick to flush arrivals.
	for c := uint64(0); c < 9; c++ {
		x.Tick(c)
	}
	if n != 16 {
		t.Fatalf("delivered %d, want 16", n)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	var order []uint64
	x := New(Config{Name: "noc", Ports: 2, Latency: 0, Width: 1, Depth: 8},
		func(r *mem.Request) bool { order = append(order, r.Addr); return true }, nil)
	for i := 0; i < 3; i++ {
		x.Push(0, &mem.Request{Addr: 0})
		x.Push(1, &mem.Request{Addr: 1})
	}
	for c := uint64(0); c < 10; c++ {
		x.Tick(c)
	}
	if len(order) != 6 {
		t.Fatalf("delivered %d", len(order))
	}
	// Strict alternation under round-robin with equal backlog.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("order not round-robin: %v", order)
		}
	}
}

func TestSinkBackpressureRetries(t *testing.T) {
	accept := false
	var n int
	x := New(Config{Name: "noc", Ports: 1, Latency: 0, Width: 1},
		func(*mem.Request) bool {
			if accept {
				n++
			}
			return accept
		}, nil)
	x.Push(0, &mem.Request{})
	x.Tick(0)
	x.Tick(1) // rejected, stays in flight
	if n != 0 {
		t.Fatal("should not deliver while sink rejects")
	}
	if !x.Busy() {
		t.Fatal("crossbar should report busy")
	}
	accept = true
	x.Tick(2)
	if n != 1 {
		t.Fatal("must retry and deliver once sink accepts")
	}
	if x.Busy() {
		t.Fatal("should be idle after delivery")
	}
}

func TestPortDepthBackpressure(t *testing.T) {
	x := New(Config{Name: "noc", Ports: 1, Latency: 0, Width: 1, Depth: 2},
		func(*mem.Request) bool { return true }, nil)
	if !x.Push(0, &mem.Request{}) || !x.Push(0, &mem.Request{}) {
		t.Fatal("pushes under depth must succeed")
	}
	if x.Push(0, &mem.Request{}) {
		t.Fatal("push over depth must fail")
	}
}

// A refused arrived flit does not block the arrived flits behind it:
// every arrived flit is offered every cycle, in order, and the ones the
// sink turns down keep their place at the front for the next cycle.
func TestRefusedFlitDoesNotBlockThoseBehindIt(t *testing.T) {
	var offered, taken []uint64
	refuse := map[uint64]bool{0: true, 2: true}
	x := New(Config{Name: "noc", Ports: 1, Latency: 3, Width: 2, Depth: 8},
		func(r *mem.Request) bool {
			offered = append(offered, r.Addr)
			if refuse[r.Addr] {
				return false
			}
			taken = append(taken, r.Addr)
			return true
		}, nil)
	for a := uint64(0); a < 6; a++ {
		x.Push(0, &mem.Request{Addr: a})
	}
	// One flit leaves the port per cycle: flit a arrives at cycle a+3.
	expect := func(cycle uint64, wantOffered, wantTaken []uint64) {
		t.Helper()
		offered, taken = offered[:0], taken[:0]
		x.Tick(cycle)
		if fmt.Sprint(offered) != fmt.Sprint(wantOffered) || fmt.Sprint(taken) != fmt.Sprint(wantTaken) {
			t.Fatalf("cycle %d: offered %v took %v, want offered %v took %v", cycle, offered, taken, wantOffered, wantTaken)
		}
		if w := x.NextWake(cycle + 1); len(wantOffered) > len(wantTaken) && w != cycle+1 {
			t.Fatalf("cycle %d: a refused flit is waiting but NextWake = %d", cycle, w)
		}
	}
	for c := uint64(0); c < 3; c++ {
		expect(c, nil, nil)
	}
	expect(3, []uint64{0}, nil)
	expect(4, []uint64{0, 1}, []uint64{1})    // 0 refused again, 1 behind it delivered
	expect(5, []uint64{0, 2}, nil)            // refused flits keep their order at the front
	expect(6, []uint64{0, 2, 3}, []uint64{3}) // and are offered before later arrivals
	expect(7, []uint64{0, 2, 4}, []uint64{4})
	refuse[0] = false
	expect(8, []uint64{0, 2, 5}, []uint64{0, 5})
	refuse[2] = false
	expect(9, []uint64{2}, []uint64{2})
	if x.Busy() || x.Transferred() != 6 || x.stalls.Value() != 9 {
		t.Fatalf("after draining: busy=%v transferred=%d stalls=%d, want idle, 6, 9", x.Busy(), x.Transferred(), x.stalls.Value())
	}
}
