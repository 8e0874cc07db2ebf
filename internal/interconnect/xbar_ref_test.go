package interconnect

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"emerald/internal/cache"
	"emerald/internal/dram"
	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/stats"
)

// refXbar is the parent commit's crossbar, kept as the reference the
// parking one is driven against: every arrived flit is offered to the
// sink every cycle, in order, and the refused ones keep their place at
// the front for the next cycle.
type refXbar struct {
	cfg                 Config
	ports               []*mem.Queue
	inflight            []flit
	sink                func(*mem.Request) bool
	rr                  int
	transferred, stalls int64
}

func newRefXbar(cfg Config, sink func(*mem.Request) bool) *refXbar {
	x := &refXbar{cfg: cfg, sink: sink}
	for i := 0; i < cfg.Ports; i++ {
		x.ports = append(x.ports, mem.NewQueue(cfg.Depth))
	}
	return x
}

func (x *refXbar) tick(cycle uint64) {
	var refused []flit
	i := 0
	for ; i < len(x.inflight) && x.inflight[i].arrives <= cycle; i++ {
		if x.sink(x.inflight[i].req) {
			x.transferred++
		} else {
			x.stalls++
			refused = append(refused, x.inflight[i])
		}
	}
	x.inflight = append(refused, x.inflight[i:]...)
	moved := 0
	for scanned := 0; scanned < len(x.ports) && moved < x.cfg.Width &&
		len(x.inflight) < 4*x.cfg.Width; scanned++ {
		p := x.ports[x.rr]
		if x.rr++; x.rr == len(x.ports) {
			x.rr = 0
		}
		if r := p.Pop(); r != nil {
			x.inflight = append(x.inflight, flit{req: r, arrives: cycle + x.cfg.Latency})
			moved++
		}
	}
}

func (x *refXbar) nextWake(cycle uint64) uint64 {
	w := uint64(mem.NeverWake)
	if len(x.inflight) > 0 {
		if w = x.inflight[0].arrives; w <= cycle {
			return cycle
		}
	}
	for _, p := range x.ports {
		if p.Len() > 0 {
			return cycle
		}
	}
	return w
}

// refSink is one side's sink: a real cache (as the GPU's L2 takes NoC
// traffic) or a real DRAM controller. It records what it took, in order,
// and on the reference side classifies each refusal.
type refSink struct {
	cycle  *uint64
	c      *cache.Cache
	d      *dram.Controller
	reg    *stats.Registry
	took   []int
	why    map[string]int // refusal classes, reference side only
	pulled []*mem.Request // fills taken off the cache's port, not yet completed
}

func (s *refSink) Push(r *mem.Request) bool {
	ok := s.push(r)
	if ok {
		s.took = append(s.took, r.Tag.(int))
	}
	return ok
}

func (s *refSink) push(r *mem.Request) bool {
	if s.d != nil {
		if !s.d.Push(r) {
			s.refused("channel-full")
			return false
		}
		return true
	}
	var waiter any
	if r.Kind == mem.Read {
		waiter = r
	}
	if s.c.Access(*s.cycle, r.Addr, r.Kind, waiter) != cache.Blocked {
		return true
	}
	switch cfg := s.c.Config(); {
	case r.Kind == mem.Write && cfg.WriteThrough && s.c.Contains(r.Addr):
		s.refused("store-hit-out-full")
	case s.c.Out.Full():
		s.refused("out-full")
	case s.c.PendingMisses() >= cfg.MSHRs:
		s.refused("mshr-full")
	default:
		s.refused("merge-full")
	}
	return false
}

func (s *refSink) refused(why string) {
	if s.why != nil {
		s.why[why]++
	}
}

func (s *refSink) Room() uint64 {
	if s.d != nil {
		return s.d.Room()
	}
	return s.c.Room()
}

func (s *refSink) Refused(rs []*mem.Request, n uint64) {
	if s.d != nil {
		s.d.Refused(rs, n)
		return
	}
	s.c.RefusedAll(*s.cycle, rs, n)
}

func (s *refSink) counters() string {
	var b []byte
	s.reg.Each(func(name string, v int64) { b = fmt.Appendf(b, "%s=%d ", name, v) })
	return string(b)
}

// TestParkingAgainstRetryEveryCycleReference drives the parking
// crossbar and the parent's retry-every-cycle one side by side, each
// into its own copy of a refusing sink, with the same seeded traffic
// and the same seeded room schedule: fills completed late and out of
// order, installs and port drains on random cycles, DRAM ticked on
// random cycles. The sinks refuse for every reason there is (MSHRs
// full, merge slots full, output port full, a write-through store hit
// with the port full, a DRAM channel queue full). Every cycle the two
// must have taken the same flits in the same order, with equal stalls,
// equal sink counters and LRU stamps, the same Busy, and the round-robin
// pointer where the reference has it. NextWake is the reference's, or
// later while the parked flits' room stands or the ports wait for
// credit: then every tick up to it only charges. The jump arm takes
// such a wait, on a seeded share of the cycles it is reported, as a
// clock jump does: the reference ticks a seeded k cycles of it with no
// traffic and no room event, and the parking crossbar is charged
// Charge(k) with the sink's clock at the last of them; the two must
// agree at landing, a refused write-through store hit's LRU touch
// included. Both of Tick's quiet returns (fully idle; flits in flight
// with none arriving) must be taken. With EMERALD_GUARD=1 the parking
// crossbar runs its room audit, reports every wait as the reference
// does (so nothing is jumped) and must report nothing.
func TestParkingAgainstRetryEveryCycleReference(t *testing.T) {
	audit := os.Getenv("EMERALD_GUARD") == "1"
	why, quiet := map[string]int{}, map[string]int{}
	skipped, jumped := map[string]int{}, map[string]int{}
	for _, sink := range []string{"l2", "l1d", "dram"} {
		for width := 1; width <= 4; width++ {
			for _, lat := range []uint64{0, 3, 10} {
				for seed := int64(1); seed <= 2; seed++ {
					name := fmt.Sprintf("%s/width=%d/latency=%d/seed=%d", sink, width, lat, seed)
					skipped[sink] += refRun(t, name, sink, width, lat, seed, audit, why, quiet, jumped)
				}
			}
		}
	}
	t.Logf("refusals by class %v; cycles the parked flits were charged unasked, by sink, %v; quiet ticks %v; jumped cycles %v",
		why, skipped, quiet, jumped)
	if !audit {
		for _, class := range []string{"l2", "l1d", "dram", "store-hit-touch"} {
			if jumped[class] == 0 {
				t.Fatalf("coverage lost: no %s cycle was jumped in %v", class, jumped)
			}
		}
	}
	for _, class := range []string{"idle", "in-flight"} {
		if quiet[class] == 0 {
			t.Fatalf("coverage lost: no %s tick returned early in %v", class, quiet)
		}
	}
	for _, class := range []string{"channel-full", "store-hit-out-full", "out-full", "mshr-full", "merge-full"} {
		if why[class] == 0 {
			t.Fatalf("coverage lost: no %s refusal in %v", class, why)
		}
	}
	for sink, n := range skipped {
		if n == 0 {
			t.Fatalf("coverage lost: the %s sink's room never stood still under a parked flit", sink)
		}
	}
}

func refRun(t *testing.T, name, kind string, width int, lat uint64, seed int64, audit bool, why, quiet, jumped map[string]int) int {
	rng := rand.New(rand.NewSource(seed*131 + int64(width)*7 + int64(lat)))
	jumps := rand.New(rand.NewSource(seed))
	var cycle uint64
	mk := func() *refSink {
		s := &refSink{cycle: &cycle, reg: stats.NewRegistry()}
		switch kind {
		case "dram":
			s.d = dram.NewController(dram.Config{Name: "d", Geometry: dram.LPDDR3Geometry(2),
				Timing: dram.LPDDR3Timing(1333), QueueDepth: 2}, s.reg)
		case "l2":
			s.c = cache.New(cache.Config{Name: "l2", SizeBytes: 1024, LineBytes: 64, Ways: 2,
				MSHRs: 3, MSHRTargets: 2, WriteBack: true, Allocate: true}, s.reg)
			s.c.Out = mem.NewQueue(3)
		default:
			s.c = cache.New(cache.Config{Name: "l1d", SizeBytes: 512, LineBytes: 64, Ways: 2,
				MSHRs: 4, MSHRTargets: 3, WriteThrough: true}, s.reg)
			s.c.Out = mem.NewQueue(2)
		}
		if s.c != nil {
			s.c.OnReady = func(any, uint64) {}
		}
		return s
	}
	a, b := mk(), mk() // a: the reference, b: the parking crossbar
	a.why = why
	cfg := Config{Name: "x", Ports: 3, Latency: lat, Width: width, Depth: 4}
	ref, x := newRefXbar(cfg, a.Push), Connect(cfg, b, nil)
	g := guard.NewChecker()
	if audit {
		x.AttachGuard(g)
	}
	lines, id, skipped := 24, 0, 0
	for ; cycle < 2000 || x.Busy() || ref.busy(); cycle++ {
		if cycle == 50_000 {
			t.Fatalf("%s: the crossbars never drained", name)
		}
		where := func(what string, args ...any) {
			t.Helper()
			t.Fatalf("%s cycle %d: %s", name, cycle, fmt.Sprintf(what, args...))
		}
		// Traffic into the ports, in step.
		for k := rng.Intn(width + 2); k > 0 && cycle < 2000; k-- {
			p := rng.Intn(cfg.Ports)
			addr := uint64(rng.Intn(lines)) * 64
			rk := mem.Read
			if rng.Intn(3) == 0 {
				rk = mem.Write
			}
			id++
			ra := &mem.Request{Addr: addr, Size: 64, Kind: rk, Client: mem.ClientGPU, Tag: id}
			rb := &mem.Request{Addr: addr, Size: 64, Kind: rk, Client: mem.ClientGPU, Tag: id}
			if ref.ports[p].Push(ra) != x.Push(p, rb) {
				where("the ports disagree on room")
			}
		}
		stale := len(x.parked) > 0 && b.Room() == x.room
		charging := stale || !x.portsEmpty() && x.inflight.Len()+len(x.parked) >= 4*width
		w1, w2 := ref.nextWake(cycle), x.NextWake(cycle)
		if w2 < w1 || w2 != w1 && (audit || !charging) {
			where("NextWake %d, the reference %d", w2, w1)
		}
		if stale {
			skipped++
		}
		if len(x.parked) == 0 && (x.inflight.Len() == 0 || x.inflight.Front().arrives > cycle) && x.portsEmpty() {
			if x.inflight.Len() == 0 {
				quiet["idle"]++
			} else {
				quiet["in-flight"]++
			}
		}
		a.took, b.took = a.took[:0], b.took[:0]
		k := uint64(0)
		if w2 > cycle && jumps.Intn(2) == 0 {
			k = 1 + uint64(jumps.Int63n(int64(min(w2-cycle, 24))))
		}
		if k > 0 {
			// The jump: the reference retries every cycle of the wait, and
			// the parking crossbar is charged for all of them at once,
			// with the sink's clock at the last.
			jumped[kind] += int(k)
			if kind == "l1d" {
				for _, r := range x.parked {
					if r.Kind == mem.Write && b.c.Contains(r.Addr) {
						jumped["store-hit-touch"] += int(k)
					}
				}
			}
			for last := cycle + k - 1; ; cycle++ {
				ref.tick(cycle)
				if cycle == last {
					break
				}
			}
			x.Charge(k)
		} else {
			ref.tick(cycle)
			x.Tick(cycle)
		}
		if fmt.Sprint(a.took) != fmt.Sprint(b.took) {
			where("took %v, the reference %v", b.took, a.took)
		}
		if x.rr != ref.rr {
			where("round-robin pointer %d, the reference %d", x.rr, ref.rr)
		}
		if ref.transferred != x.transferred.Value() || ref.stalls != x.stalls.Value() {
			where("transferred/stalls %d/%d, the reference %d/%d", x.transferred.Value(), x.stalls.Value(), ref.transferred, ref.stalls)
		}
		// The room schedule, in step; nothing moves room during a jump.
		switch {
		case k > 0:
		case kind == "dram":
			if rng.Intn(3) == 0 {
				a.d.Tick(cycle)
				b.d.Tick(cycle)
			}
		default:
			for k := rng.Intn(3); k > 0 && a.c.Out.Len() > 0 && rng.Intn(2) == 0; k-- {
				ra, rb := a.c.Out.Pop(), b.c.Out.Pop()
				if rb == nil || ra.Addr != rb.Addr || ra.Kind != rb.Kind {
					where("ports emitted %+v, the reference %+v", rb, ra)
				}
				if ra.Kind == mem.Write {
					ra.Complete(cycle)
					rb.Complete(cycle)
				} else {
					a.pulled, b.pulled = append(a.pulled, ra), append(b.pulled, rb)
				}
			}
			for k := rng.Intn(2); k > 0 && len(a.pulled) > 0; k-- {
				i := rng.Intn(len(a.pulled))
				a.pulled[i].Complete(cycle)
				b.pulled[i].Complete(cycle)
				a.pulled = append(a.pulled[:i], a.pulled[i+1:]...)
				b.pulled = append(b.pulled[:i], b.pulled[i+1:]...)
			}
			if rng.Intn(4) == 0 {
				a.c.Tick(cycle)
				b.c.Tick(cycle)
			}
		}
		if ca, cb := a.counters(), b.counters(); ca != cb {
			where("sink counters %s, the reference %s", cb, ca)
		}
		if n := x.inflight.Len() + len(x.parked); n != len(ref.inflight) || x.Busy() != ref.busy() {
			where("%d flits (busy %v), the reference %d (busy %v)", n, x.Busy(), len(ref.inflight), ref.busy())
		}
		if a.c != nil && !slices.Equal(lruOf(a.c), lruOf(b.c)) {
			where("LRU stamps %v, the reference %v", lruOf(b.c), lruOf(a.c))
		}
		if a.c != nil && cycle%32 == 0 {
			for l := 0; l < lines; l++ {
				if a.c.Contains(uint64(l*64)) != b.c.Contains(uint64(l*64)) {
					where("line %#x residency differs from the reference", l*64)
				}
			}
		}
		g.Tick(cycle)
		if v := g.Violations(); len(v) != 0 {
			where("guard: %v", v)
		}
	}
	return skipped
}

// lruOf reads a cache's LRU stamps, which decide its victims.
func lruOf(c *cache.Cache) []uint64 {
	return *(*[]uint64)(unsafe.Pointer(reflect.ValueOf(c).Elem().FieldByName("lru").UnsafeAddr()))
}

func (x *refXbar) busy() bool {
	for _, p := range x.ports {
		if p.Len() > 0 {
			return true
		}
	}
	return len(x.inflight) > 0
}
