// Package interconnect provides the on-chip network models: a simple
// crossbar with per-cycle transfer width and fixed latency. Two instances
// appear in the SoC (paper Figure 1): the GPU-internal network connecting
// L1 caches to the L2, and the system network connecting CPU cluster, GPU
// cluster, display DMA and DRAM.
package interconnect

import (
	"fmt"

	"emerald/internal/mem"
	"emerald/internal/stats"
)

// Config describes a crossbar.
type Config struct {
	Name    string
	Ports   int    // upstream input ports
	Latency uint64 // cycles from input to sink
	Width   int    // max requests moved per cycle (all ports combined)
	Depth   int    // per-port input queue depth
}

// Sink is what a crossbar delivers into. Push hands a request over and
// reports whether it was taken. Room is the sink's room counter: a
// monotone number that moves on every event that can turn a refusal
// into an acceptance, so a request refused at one value is refused
// again while it holds. Refused charges n cycles' refusals of each of
// rs without asking: whatever n refused Pushes of each would have
// counted, the last of them in the sink's latest cycle.
type Sink interface {
	Push(r *mem.Request) bool
	Room() uint64
	Refused(rs []*mem.Request, n uint64)
}

// funcSink is a bare func as a Sink whose room moves whenever it is
// asked, so a refused flit is re-offered every cycle.
type funcSink struct {
	push func(*mem.Request) bool
	room uint64
}

func (s *funcSink) Push(r *mem.Request) bool       { return s.push(r) }
func (s *funcSink) Room() uint64                   { s.room++; return s.room }
func (s *funcSink) Refused([]*mem.Request, uint64) {}

// Crossbar moves requests from N input ports to a single downstream sink
// with fixed latency and bounded per-cycle width, arbitrating round-robin
// across ports. Responses travel out-of-band (requests are completed in
// place by the ultimate servicer), so only the request path is modeled;
// Latency should therefore include the average response hop cost.
type Crossbar struct {
	cfg   Config
	ports []*mem.Queue
	// inflight holds requests traversing the crossbar, oldest first. The
	// latency is constant, so arrival times never decrease from front to
	// back and the arrived flits are always a prefix.
	inflight mem.Ring[flit]
	// parked holds the requests of arrived flits the sink refused,
	// oldest first, and room is the sink's room counter when they were
	// last offered.
	parked []*mem.Request
	room   uint64
	sink   Sink
	rr     int
	// audit (a guard is attached) re-offers parked flits even while room
	// has not moved; lost describes the first one the sink took anyway.
	audit bool
	lost  string

	transferred *stats.Counter
	stalls      *stats.Counter
}

type flit struct {
	req     *mem.Request
	arrives uint64
}

// New creates a crossbar delivering into a bare func, whose refusals
// are re-offered every cycle. reg may be nil.
func New(cfg Config, sink func(*mem.Request) bool, reg *stats.Registry) *Crossbar {
	return Connect(cfg, &funcSink{push: sink}, reg)
}

// Connect creates a crossbar delivering into sink. reg may be nil.
func Connect(cfg Config, sink Sink, reg *stats.Registry) *Crossbar {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.Ports < 1 {
		cfg.Ports = 1
	}
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	if cfg.Depth == 0 {
		cfg.Depth = 8
	}
	s := reg.Scope(cfg.Name)
	x := &Crossbar{
		cfg:         cfg,
		sink:        sink,
		transferred: s.Counter("transferred"),
		stalls:      s.Counter("stalls"),
	}
	for i := 0; i < cfg.Ports; i++ {
		x.ports = append(x.ports, mem.NewQueue(cfg.Depth))
	}
	return x
}

// Port returns input port i.
func (x *Crossbar) Port(i int) *mem.Queue { return x.ports[i] }

// Push is a convenience for single-port use.
func (x *Crossbar) Push(port int, r *mem.Request) bool { return x.ports[port].Push(r) }

// Tick moves up to Width requests from ports into the pipe and delivers
// arrived requests to the sink. Every arrived flit is answered every
// cycle, oldest first, and a refused one does not hold up those behind
// it: the parked flits go first, re-offered once the sink's room has
// moved since they were refused and charged as refused again otherwise
// (nothing else frees room, so the answer is certain), then the new
// arrivals, a refused one parking behind the rest. With nothing parked,
// nothing arriving and every port empty, Tick returns before asking the
// sink: its room is read only to judge parked flits (one that parks
// reads it afresh), and a full round-robin rotation over empty ports
// leaves rr where it was.
func (x *Crossbar) Tick(cycle uint64) {
	if len(x.parked) == 0 && (x.inflight.Len() == 0 || x.inflight.Front().arrives > cycle) && x.portsEmpty() {
		return
	}
	room := x.sink.Room()
	if stale := room == x.room; stale && !x.audit {
		x.Charge(1)
	} else if len(x.parked) > 0 {
		kept := x.parked[:0]
		for _, r := range x.parked {
			if !x.deliver(r) {
				kept = append(kept, r)
			} else if stale && x.lost == "" {
				x.lost = fmt.Sprintf("cycle %d: the sink took a flit for %#x refused at room %d, which has not moved since",
					cycle, r.Addr, room)
			}
		}
		clear(x.parked[len(kept):])
		x.parked = kept
	}
	for x.inflight.Len() > 0 && x.inflight.Front().arrives <= cycle {
		if r := x.inflight.Pop().req; !x.deliver(r) {
			x.parked = append(x.parked, r)
		}
	}
	x.room = room

	// Accept new flits round-robin, bounded by the internal buffering
	// (4 flits per unit of width, parked ones included) so a blocked
	// sink backpressures the ports instead of ballooning the in-flight
	// set.
	moved := 0
	for scanned := 0; scanned < len(x.ports) && moved < x.cfg.Width &&
		x.inflight.Len()+len(x.parked) < 4*x.cfg.Width; scanned++ {
		p := x.ports[x.rr]
		if x.rr++; x.rr == len(x.ports) {
			x.rr = 0
		}
		if r := p.Pop(); r != nil {
			x.inflight.PushBack(flit{req: r, arrives: cycle + x.cfg.Latency})
			moved++
		}
	}
}

// deliver offers r to the sink and counts the answer.
func (x *Crossbar) deliver(r *mem.Request) bool {
	if x.sink.Push(r) {
		x.transferred.Inc()
		return true
	}
	x.stalls.Inc()
	return false
}

// NextWake returns the earliest future cycle at which the crossbar's
// state can change on its own: now when the sink's room has moved under
// parked flits or a port's input can enter, the earliest arrival
// otherwise, and mem.NeverWake when nothing is in flight. Parked flits
// whose room stands and ports held back for want of credit are a
// charge, not work: until the next arrival or room event each Tick only
// counts the same refusals again, which Charge pays for a jump over
// those cycles. An idle Tick is a strict no-op (it returns before
// asking the sink), so skipped idle cycles leave no trace. Under a
// guard's audit parked flits and queued input are due every cycle.
func (x *Crossbar) NextWake(cycle uint64) uint64 {
	if len(x.parked) > 0 && (x.audit || x.sink.Room() != x.room) {
		return cycle
	}
	if !x.portsEmpty() && (x.audit || x.inflight.Len()+len(x.parked) < 4*x.cfg.Width) {
		return cycle
	}
	if x.inflight.Len() > 0 {
		return max(x.inflight.Front().arrives, cycle)
	}
	return mem.NeverWake
}

// Charge counts n cycles of the parked flits' refusals: what n Ticks
// would count while the sink's room stands and nothing arrives. Every
// jump over cycles NextWake put in the future calls it, with the sink's
// clock at the last of them.
func (x *Crossbar) Charge(n uint64) {
	if k := len(x.parked); k > 0 {
		x.stalls.Add(int64(k) * int64(n))
		x.sink.Refused(x.parked, n)
	}
}

// portsEmpty reports whether no input port holds a request.
func (x *Crossbar) portsEmpty() bool {
	for _, p := range x.ports {
		if p.Len() > 0 {
			return false
		}
	}
	return true
}

// Busy reports whether any request is queued or in flight.
func (x *Crossbar) Busy() bool {
	return x.inflight.Len()+len(x.parked) > 0 || !x.portsEmpty()
}
