// Package interconnect provides the on-chip network models: a simple
// crossbar with per-cycle transfer width and fixed latency. Two instances
// appear in the SoC (paper Figure 1): the GPU-internal network connecting
// L1 caches to the L2, and the system network connecting CPU cluster, GPU
// cluster, display DMA and DRAM.
package interconnect

import (
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
	refused  []flit // arrived flits the sink turned down this cycle
	sink     func(*mem.Request) bool
	rr       int

	transferred *stats.Counter
	stalls      *stats.Counter
}

type flit struct {
	req     *mem.Request
	arrives uint64
}

// New creates a crossbar delivering into sink. reg may be nil.
func New(cfg Config, sink func(*mem.Request) bool, reg *stats.Registry) *Crossbar {
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
// arrived requests to the sink (retrying under backpressure).
func (x *Crossbar) Tick(cycle uint64) {
	// Deliver arrivals first: every arrived flit is offered, in order,
	// and one the sink refuses goes back to the front without holding
	// up the ones behind it.
	for x.inflight.Len() > 0 && x.inflight.Front().arrives <= cycle {
		if f := x.inflight.Pop(); x.sink(f.req) {
			x.transferred.Inc()
		} else {
			x.stalls.Inc()
			x.refused = append(x.refused, f)
		}
	}
	for i := len(x.refused) - 1; i >= 0; i-- {
		x.inflight.PushFront(x.refused[i])
	}
	clear(x.refused)
	x.refused = x.refused[:0]

	// Accept new flits round-robin, bounded by the internal buffering
	// (4 flits per unit of width) so a blocked sink backpressures the
	// ports instead of ballooning the in-flight set.
	moved := 0
	for scanned := 0; scanned < len(x.ports) && moved < x.cfg.Width &&
		x.inflight.Len() < 4*x.cfg.Width; scanned++ {
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

// NextWake returns the earliest future cycle at which the crossbar's
// state can change on its own: now when a port has queued input or an
// in-flight request has arrived, the earliest arrival otherwise, and
// mem.NeverWake when empty. An idle Tick is a strict no-op (the
// round-robin pointer advances by a full rotation), so skipped idle
// cycles leave no trace.
func (x *Crossbar) NextWake(cycle uint64) uint64 {
	w := uint64(mem.NeverWake)
	if x.inflight.Len() > 0 {
		if w = x.inflight.Front().arrives; w <= cycle {
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

// Busy reports whether any request is queued or in flight.
func (x *Crossbar) Busy() bool {
	if x.inflight.Len() > 0 {
		return true
	}
	for _, p := range x.ports {
		if p.Len() > 0 {
			return true
		}
	}
	return false
}

// Transferred returns the number of requests delivered downstream.
func (x *Crossbar) Transferred() int64 { return x.transferred.Value() }
