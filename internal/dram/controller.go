package dram

import (
	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/par"
	"emerald/internal/stats"
)

// Timing holds DRAM timing parameters, expressed in *controller clock*
// cycles (the simulator runs the memory controller in the GPU/SoC core
// clock domain; constructors below do the conversion).
type Timing struct {
	TRCD uint64 // activate -> column command
	TRP  uint64 // precharge
	TCL  uint64 // column command -> first data
	// BytesPerCycle is the per-channel data-bus throughput.
	BytesPerCycle float64
}

// Config describes a DRAM subsystem.
type Config struct {
	Name       string
	Geometry   Geometry
	Timing     Timing
	QueueDepth int // per-channel request queue entries
	// Mappings gives the address mapping per channel. Channel selection
	// itself uses Assign if non-nil, otherwise mapping[0]'s channel field.
	Mappings []Mapping
	// Assign optionally routes a request to a channel by traffic source
	// (the HMC organization); nil uses address-based channel selection.
	Assign func(*mem.Request) int
	// Scheduler picks the next request per channel; nil = FR-FCFS.
	Scheduler Scheduler
}

// LPDDR3Geometry is the geometry used across the paper's configurations:
// 1 rank, 8 banks, 2 KB rows, 128 B columns (channel-interleave
// granularity matches the largest request size, the GPU's 128 B line, so
// both channels see every traffic stream).
func LPDDR3Geometry(channels int) Geometry {
	return Geometry{Channels: channels, Ranks: 1, Banks: 8, Columns: 16, ColumnBytes: 128}
}

// LPDDR3Timing converts an LPDDR3 data rate (Mb/s/pin, 32-bit channel) to
// controller-clock timing, assuming a 1 GHz controller clock. The paper's
// regular-load config is 1333 Mb/s, the high-load config 133 Mb/s, and
// Case Study II uses 1600 Mb/s.
func LPDDR3Timing(dataRateMbps int) Timing {
	// 32-bit bus, DDR: bytes/s = rate(Mb/s) * 1e6 / 8 bits * 32 pins.
	bytesPerSec := float64(dataRateMbps) * 1e6 * 4
	const clockHz = 1e9
	return Timing{
		// ~18ns tRCD/tRP/tCL at any speed grade; in 1GHz cycles.
		TRCD:          18,
		TRP:           18,
		TCL:           15,
		BytesPerCycle: bytesPerSec / clockHz,
	}
}

// burstNames gives static per-client burst span names so the hot emit
// path never concatenates strings.
var burstNames = [...]string{
	mem.ClientCPU:     "burst_cpu",
	mem.ClientGPU:     "burst_gpu",
	mem.ClientDisplay: "burst_display",
	mem.ClientDMA:     "burst_dma",
}

type bank struct {
	openRow   int64 // -1 = closed
	readyAt   uint64
	rowOpened uint64 // activation count bookkeeping hook
}

// Channel is one DRAM channel: a request queue, banks and a data bus.
type Channel struct {
	ID    int
	Queue []*mem.Request
	// locs[i] is where Queue[i] lives, decoded once when it was pushed
	// and kept in lockstep with Queue through serveChannel's removal.
	locs    []Loc
	banks   [][]bank // [rank][bank]
	busFree uint64
	mapping Mapping
	// ownMapping: Push decodes with this channel's mapping, because the
	// request was source-routed here or the mapping is not channel 0's
	// (whose decode picked the channel and is otherwise reused).
	ownMapping bool

	// inService holds issued transfers in issue order. The data bus
	// serializes them, so DoneAt strictly increases front to back and
	// the finished ones are always a prefix.
	inService mem.Ring[*mem.Request]

	rowHits, rowMisses, rowConflicts *stats.Counter
	activations                      *stats.Counter
	bytes                            *stats.Counter
	served                           [len(burstNames)]*stats.Counter // by mem.Client
	latency                          *stats.Distribution

	trace *emtrace.Tracer
	track string // "chN", precomputed so emitting never builds strings
}

// OpenRow reports the open row in (rank,bank), or -1.
func (ch *Channel) OpenRow(rank, b int) int64 { return ch.banks[rank][b].openRow }

// Mapping returns the channel's address mapping.
func (ch *Channel) Mapping() Mapping { return ch.mapping }

// IsRowHit reports whether Queue[i] would hit the open row.
func (ch *Channel) IsRowHit(i int) bool {
	loc := &ch.locs[i]
	return ch.banks[loc.Rank][loc.Bank].openRow == int64(loc.Row)
}

// BankReady reports whether Queue[i]'s bank can accept a command at the
// given cycle.
func (ch *Channel) BankReady(i int, cycle uint64) bool {
	loc := &ch.locs[i]
	return ch.banks[loc.Rank][loc.Bank].readyAt <= cycle
}

// Controller is the top-level DRAM subsystem.
type Controller struct {
	cfg      Config
	Channels []*Channel
	sched    Scheduler

	// Timeline, when non-nil, records per-source serviced bytes.
	Timeline *stats.Timeline

	reg       *stats.Registry
	rejected  *stats.Counter
	totalBusy uint64

	// Parallel tick engine state: when armed via SetParallel, Tick runs
	// the per-channel work as one shard per channel on the worker pool.
	// Channels share no mutable state (the scheduler's cross-channel
	// tallies are atomic), so any interleaving yields the sequential
	// result bit for bit.
	group     *par.Group
	tickCycle uint64

	// onRetire, when set, is called for every request the moment it
	// retires (Done becomes observable next cycle). Channel shards run
	// in parallel, so the callback must be safe for concurrent use and
	// restricted to commutative atomic updates — the SoC uses it to
	// wake the retiring client's phase-1 wheel slot.
	onRetire func(r *mem.Request, cycle uint64)
}

// SetOnRetire installs the retirement callback. See the field comment
// for the concurrency contract.
func (c *Controller) SetOnRetire(fn func(r *mem.Request, cycle uint64)) { c.onRetire = fn }

// SetParallel arms the worker pool for per-channel parallel ticking.
// A nil pool (or pool of size 1) keeps the sequential path.
func (c *Controller) SetParallel(p *par.Pool) {
	if p == nil || p.Size() <= 1 {
		c.group = nil
		return
	}
	tasks := make([]func(), len(c.Channels))
	for i, ch := range c.Channels {
		ch := ch
		tasks[i] = func() { c.serveChannel(ch, c.tickCycle) }
	}
	c.group = par.NewGroup(p, tasks)
}

// NewController builds a DRAM controller. reg may be nil.
func NewController(cfg Config, reg *stats.Registry) *Controller {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewFRFCFS()
	}
	if len(cfg.Mappings) == 0 {
		cfg.Mappings = []Mapping{MappingPageStriped(cfg.Geometry)}
	}
	// Replicate a single mapping across channels.
	given := len(cfg.Mappings)
	for len(cfg.Mappings) < cfg.Geometry.Channels {
		cfg.Mappings = append(cfg.Mappings, cfg.Mappings[0])
	}
	s := reg.Scope(cfg.Name)
	c := &Controller{cfg: cfg, sched: cfg.Scheduler, reg: reg, rejected: s.Counter("rejected")}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		chScope := s.Scope("ch" + string(rune('0'+i)))
		ch := &Channel{
			ID:           i,
			track:        "ch" + string(rune('0'+i)),
			mapping:      cfg.Mappings[i],
			rowHits:      chScope.Counter("row_hits"),
			rowMisses:    chScope.Counter("row_misses"),
			rowConflicts: chScope.Counter("row_conflicts"),
			activations:  chScope.Counter("activations"),
			bytes:        chScope.Counter("bytes"),
			latency:      chScope.Distribution("latency"),
			ownMapping:   cfg.Assign != nil || i > 0 && i < given,
		}
		for _, cl := range []mem.Client{mem.ClientCPU, mem.ClientGPU, mem.ClientDisplay, mem.ClientDMA} {
			ch.served[cl] = chScope.Counter("served_" + cl.String())
		}
		ch.banks = make([][]bank, cfg.Geometry.Ranks)
		for r := range ch.banks {
			ch.banks[r] = make([]bank, cfg.Geometry.Banks)
			for b := range ch.banks[r] {
				ch.banks[r][b].openRow = -1
			}
		}
		c.Channels = append(c.Channels, ch)
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// AttachTracer arms event tracing: per-bank activate/precharge instants
// and data-burst spans, one trace lane per channel.
func (c *Controller) AttachTracer(t *emtrace.Tracer) {
	for _, ch := range c.Channels {
		ch.trace = t
	}
}

// Push enqueues a request, decoding its address once; it reports false
// when the target channel's queue is full (backpressure to the NoC).
func (c *Controller) Push(r *mem.Request) bool {
	n := -1
	if c.cfg.Assign != nil {
		n = c.cfg.Assign(r)
	}
	var loc Loc
	if n < 0 || n >= len(c.Channels) {
		loc = c.cfg.Mappings[0].Decode(r.Addr)
		n = loc.Channel
	}
	ch := c.Channels[n]
	if len(ch.Queue) >= c.cfg.QueueDepth {
		c.rejected.Inc()
		return false
	}
	if ch.ownMapping {
		loc = ch.mapping.Decode(r.Addr)
	}
	ch.Queue = append(ch.Queue, r)
	ch.locs = append(ch.locs, loc)
	return true
}

// QueuedRequests reports the total number of waiting requests.
func (c *Controller) QueuedRequests() int {
	n := 0
	for _, ch := range c.Channels {
		n += len(ch.Queue) + ch.inService.Len()
	}
	return n
}

// Tick advances the DRAM by one controller cycle: completes in-flight
// transfers and issues at most one new transaction per channel. With
// SetParallel armed, channels tick concurrently (one shard each);
// otherwise they tick in channel order. Both paths compute identical
// state.
func (c *Controller) Tick(cycle uint64) {
	c.sched.Tick(cycle)
	if c.group == nil || c.QueuedRequests() == 0 {
		for _, ch := range c.Channels {
			c.serveChannel(ch, cycle)
		}
		return
	}
	c.tickCycle = cycle
	c.group.Run()
}

// serveChannel retires the channel's finished transfers and issues at
// most one new transaction.
func (c *Controller) serveChannel(ch *Channel, cycle uint64) {
	for ch.inService.Len() > 0 && (*ch.inService.Front()).DoneAt <= cycle {
		r := ch.inService.Pop()
		r.Complete(r.DoneAt) // keeps DoneAt; notifies the issuer's DoneWatcher
		if c.onRetire != nil {
			c.onRetire(r, cycle)
		}
	}

	// Command/data-bus overlap (bank-level parallelism): a command may
	// issue while an earlier transfer still occupies the data bus, as
	// long as the bus frees up by this request's own data phase. TCL is
	// the minimum command latency, so gating on it guarantees any pick
	// is issuable — the scheduler's (possibly stateful) Pick is never
	// called speculatively — and the bus is never reserved ahead of an
	// in-progress burst, which previously head-of-line-blocked ready
	// banks behind a single transfer's full command+data latency.
	if len(ch.Queue) == 0 || ch.busFree > cycle+c.cfg.Timing.TCL {
		return
	}
	idx := c.sched.Pick(ch, cycle)
	if idx < 0 || idx >= len(ch.Queue) {
		return
	}
	r, loc := ch.Queue[idx], ch.locs[idx]
	bk := &ch.banks[loc.Rank][loc.Bank]
	if bk.readyAt > cycle {
		// FR-FCFS semantics: never issue to a bank that cannot accept a
		// command now (defensive — the bundled schedulers filter on
		// BankReady already, so a well-behaved Pick never lands here).
		return
	}
	last := len(ch.Queue) - 1
	copy(ch.Queue[idx:], ch.Queue[idx+1:])
	copy(ch.locs[idx:], ch.locs[idx+1:])
	ch.Queue[last] = nil // the vacated slot pins nothing
	ch.Queue, ch.locs = ch.Queue[:last], ch.locs[:last]

	t := c.cfg.Timing
	start := cycle
	var cmdLatency uint64
	switch {
	case bk.openRow == int64(loc.Row):
		cmdLatency = t.TCL
		ch.rowHits.Inc()
	case bk.openRow < 0:
		cmdLatency = t.TRCD + t.TCL
		ch.rowMisses.Inc()
		ch.activations.Inc()
		ch.trace.Instant1(emtrace.SrcDRAM, ch.track, "activate", start,
			emtrace.Arg{Key: "bank", Val: int64(loc.Bank)})
	default:
		cmdLatency = t.TRP + t.TRCD + t.TCL
		ch.rowConflicts.Inc()
		ch.activations.Inc()
		ch.trace.Instant1(emtrace.SrcDRAM, ch.track, "precharge", start,
			emtrace.Arg{Key: "bank", Val: int64(loc.Bank)})
		ch.trace.Instant1(emtrace.SrcDRAM, ch.track, "activate", start+t.TRP,
			emtrace.Arg{Key: "bank", Val: int64(loc.Bank)})
	}
	bk.openRow = int64(loc.Row)

	burst := uint64(float64(r.Size)/t.BytesPerCycle + 0.999)
	if burst == 0 {
		burst = 1
	}
	// The gate above ensures busFree <= start+cmdLatency, so the data
	// phase begins right after the command phase with no bus conflict.
	dataStart := start + cmdLatency
	if dataStart < ch.busFree {
		dataStart = ch.busFree
	}
	finish := dataStart + burst

	bk.readyAt = finish
	ch.busFree = finish // the data bus serializes transfers

	r.DoneAt = finish // Done flag set when cycle reaches finish
	ch.inService.PushBack(r)

	ch.bytes.Add(int64(r.Size))
	ch.served[r.Client].Inc()
	ch.latency.Sample(float64(finish - r.IssuedAt))
	ch.trace.Span2(emtrace.SrcDRAM, ch.track, burstNames[r.Client], dataStart, finish,
		emtrace.Arg{Key: "bytes", Val: int64(r.Size)},
		emtrace.Arg{Key: "bank", Val: int64(loc.Bank)})
	if c.Timeline != nil {
		c.Timeline.Record(cycle, r.Client.String(), uint64(r.Size))
	}
}

// Drained reports whether no requests are queued or in flight.
func (c *Controller) Drained() bool { return c.QueuedRequests() == 0 }

// channelWake is the per-channel term of NextWake: the earliest cycle
// >= from at which serveChannel can do anything — every cycle while
// requests are queued (issue gating depends on bus/bank state that
// evolves each cycle), the earliest in-service completion otherwise,
// and mem.NeverWake when the channel is empty.
func (c *Controller) channelWake(ch *Channel, from uint64) uint64 {
	if len(ch.Queue) > 0 {
		return from
	}
	if ch.inService.Len() == 0 {
		return mem.NeverWake
	}
	return max(from, (*ch.inService.Front()).DoneAt)
}

// NextWake returns the earliest future cycle at which the controller's
// state can change on its own: the earliest channel wake (now while any
// channel has queued requests) or scheduler deadline, and mem.NeverWake
// when fully drained with a stateless scheduler.
func (c *Controller) NextWake(cycle uint64) uint64 {
	w := c.sched.NextWake(cycle)
	for _, ch := range c.Channels {
		if v := c.channelWake(ch, cycle); v < w {
			w = v
		}
	}
	if w <= cycle {
		return cycle
	}
	return w
}

// RowHitRate returns rowHits / (all row outcomes) across channels.
func (c *Controller) RowHitRate() float64 {
	var hits, total int64
	for _, ch := range c.Channels {
		hits += ch.rowHits.Value()
		total += ch.rowHits.Value() + ch.rowMisses.Value() + ch.rowConflicts.Value()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// BytesPerActivation returns total bytes transferred per row activation.
func (c *Controller) BytesPerActivation() float64 {
	var bytes, acts int64
	for _, ch := range c.Channels {
		bytes += ch.bytes.Value()
		acts += ch.activations.Value()
	}
	if acts == 0 {
		return 0
	}
	return float64(bytes) / float64(acts)
}

// ServedBy returns how many requests of the given client class were
// serviced across channels.
func (c *Controller) ServedBy(cl mem.Client) int64 {
	var n int64
	for _, ch := range c.Channels {
		n += ch.served[cl].Value()
	}
	return n
}

// TotalBytes returns total bytes transferred.
func (c *Controller) TotalBytes() int64 {
	var n int64
	for _, ch := range c.Channels {
		n += ch.bytes.Value()
	}
	return n
}
