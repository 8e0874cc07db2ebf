package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emerald/internal/mem"
	"emerald/internal/stats"
)

func testController(channels int) *Controller {
	g := LPDDR3Geometry(channels)
	return NewController(Config{
		Name:     "dram",
		Geometry: g,
		Timing:   LPDDR3Timing(1333),
	}, nil)
}

// run ticks the controller until every request in reqs is done (or the
// cycle budget is exhausted).
func run(t *testing.T, c *Controller, reqs []*mem.Request, budget uint64) uint64 {
	t.Helper()
	var cycle uint64
	for ; cycle < budget; cycle++ {
		c.Tick(cycle)
		done := true
		for _, r := range reqs {
			if !r.Done {
				done = false
				break
			}
		}
		if done {
			return cycle
		}
	}
	t.Fatalf("requests not drained in %d cycles (%d left)", budget, c.QueuedRequests())
	return cycle
}

func TestSingleRequestLatency(t *testing.T) {
	c := testController(1)
	r := &mem.Request{Addr: 0, Size: 64, Client: mem.ClientGPU}
	if !c.Push(r) {
		t.Fatal("push rejected")
	}
	run(t, c, []*mem.Request{r}, 1000)
	// Closed bank: tRCD+tCL+burst. burst = ceil(64/5.332) = 13.
	want := uint64(18 + 15 + 13)
	if r.DoneAt != want {
		t.Fatalf("DoneAt = %d, want %d", r.DoneAt, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cSeq := testController(1)
	cConf := testController(1)
	g := cSeq.cfg.Geometry

	// Sequential: 16 bursts in the same row.
	var seq []*mem.Request
	for i := 0; i < 16; i++ {
		seq = append(seq, &mem.Request{Addr: uint64(i * 64), Size: 64})
	}
	// Conflicting: 16 bursts each targeting a distinct row of one bank
	// (FR-FCFS cannot reorder these into hits).
	rowStride := uint64(g.RowBytes() * g.Banks * g.Ranks * g.Channels)
	var conf []*mem.Request
	for i := 0; i < 16; i++ {
		conf = append(conf, &mem.Request{Addr: uint64(i) * rowStride, Size: 64})
	}
	for _, r := range seq {
		cSeq.Push(r)
	}
	for _, r := range conf {
		cConf.Push(r)
	}
	tSeq := run(t, cSeq, seq, 100000)
	tConf := run(t, cConf, conf, 100000)
	if tSeq >= tConf {
		t.Fatalf("sequential (%d) should finish before row-conflicting (%d)", tSeq, tConf)
	}
	if hr := cSeq.RowHitRate(); hr < 0.9 {
		t.Fatalf("sequential row hit rate = %v, want >0.9", hr)
	}
	if hr := cConf.RowHitRate(); hr > 0.1 {
		t.Fatalf("conflicting row hit rate = %v, want <0.1", hr)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	g := LPDDR3Geometry(1)
	mk := func(mapping Mapping) *Controller {
		return NewController(Config{
			Name: "dram", Geometry: g, Timing: LPDDR3Timing(1333),
			Mappings: []Mapping{mapping},
		}, nil)
	}
	// Random-ish strided pattern (each access a new row): line-striped
	// mapping spreads them across banks, page-striped piles rows into the
	// same bank causing serial precharge/activate.
	mkReqs := func() []*mem.Request {
		var rs []*mem.Request
		stride := uint64(g.RowBytes()) // one row per access in page-striped
		for i := 0; i < 32; i++ {
			rs = append(rs, &mem.Request{Addr: uint64(i) * stride * uint64(g.Banks), Size: 64})
		}
		return rs
	}
	cPage, cLine := mk(MappingPageStriped(g)), mk(MappingLineStriped(g))
	rp, rl := mkReqs(), mkReqs()
	for i := range rp {
		cPage.Push(rp[i])
		cLine.Push(rl[i])
	}
	tPage := run(t, cPage, rp, 1000000)
	tLine := run(t, cLine, rl, 1000000)
	_ = tPage
	_ = tLine
	// Both finish; what matters is the accounting is sane.
	if cPage.TotalBytes() != 32*64 || cLine.TotalBytes() != 32*64 {
		t.Fatal("byte accounting wrong")
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := testController(1)
	ch := c.Channels[0]
	g := c.cfg.Geometry
	rowStride := uint64(g.RowBytes() * g.Banks * g.Ranks * g.Channels)

	// Open row 0 by servicing a first request.
	r0 := &mem.Request{Addr: 0, Size: 64}
	c.Push(r0)
	run(t, c, []*mem.Request{r0}, 1000)

	// Queue: conflict first (row 1), then a hit (row 0).
	rConf := &mem.Request{Addr: rowStride, Size: 64}
	rHit := &mem.Request{Addr: 64, Size: 64}
	c.Push(rConf)
	c.Push(rHit)
	idx := c.sched.Pick(ch, 10000)
	if idx != 1 {
		t.Fatalf("FR-FCFS picked %d, want 1 (the row hit)", idx)
	}
}

func TestChannelInterleaving(t *testing.T) {
	c := testController(2)
	// Page-striped mapping interleaves channels at column granularity.
	col := uint64(c.cfg.Geometry.ColumnBytes)
	a := &mem.Request{Addr: 0, Size: 64}
	b := &mem.Request{Addr: col, Size: 64}
	c.Push(a)
	c.Push(b)
	if len(c.Channels[0].Queue) != 1 || len(c.Channels[1].Queue) != 1 {
		t.Fatalf("channel queues = %d,%d want 1,1",
			len(c.Channels[0].Queue), len(c.Channels[1].Queue))
	}
}

func TestAssignOverridesChannel(t *testing.T) {
	g := LPDDR3Geometry(2)
	c := NewController(Config{
		Name: "hmc", Geometry: g, Timing: LPDDR3Timing(1333),
		Mappings: []Mapping{MappingPageStriped(g), MappingLineStriped(g)},
		Assign: func(r *mem.Request) int {
			if r.Client == mem.ClientCPU {
				return 0
			}
			return 1
		},
	}, nil)
	c.Push(&mem.Request{Addr: 64, Size: 64, Client: mem.ClientCPU})
	c.Push(&mem.Request{Addr: 0, Size: 64, Client: mem.ClientGPU})
	c.Push(&mem.Request{Addr: 0, Size: 64, Client: mem.ClientDisplay})
	if len(c.Channels[0].Queue) != 1 || len(c.Channels[1].Queue) != 2 {
		t.Fatalf("HMC routing broke: %d,%d", len(c.Channels[0].Queue), len(c.Channels[1].Queue))
	}
}

func TestQueueBackpressure(t *testing.T) {
	g := LPDDR3Geometry(1)
	c := NewController(Config{Name: "d", Geometry: g, Timing: LPDDR3Timing(1333), QueueDepth: 2}, nil)
	if !c.Push(&mem.Request{Size: 64}) || !c.Push(&mem.Request{Size: 64}) {
		t.Fatal("pushes under depth must succeed")
	}
	if c.Push(&mem.Request{Size: 64}) {
		t.Fatal("push over depth must fail")
	}
}

// Property: Decode/Encode are inverse for both Table 4 mappings.
func TestMappingBijectivity(t *testing.T) {
	for _, mk := range []func(Geometry) Mapping{MappingPageStriped, MappingLineStriped} {
		m := mk(LPDDR3Geometry(2))
		f := func(u uint32) bool {
			addr := uint64(u) * uint64(m.ColumnBytes)
			return m.Encode(m.Decode(addr)) == addr
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

// Property: every pushed request is eventually serviced exactly once, and
// byte accounting matches.
func TestConservation(t *testing.T) {
	c := testController(2)
	rng := rand.New(rand.NewSource(7))
	var reqs []*mem.Request
	var want int64
	for i := 0; i < 200; i++ {
		r := &mem.Request{
			Addr:   uint64(rng.Intn(1 << 20)),
			Size:   64,
			Kind:   mem.Kind(rng.Intn(2)),
			Client: mem.Client(rng.Intn(3)),
		}
		reqs = append(reqs, r)
		want += 64
	}
	// Feed with backpressure handling.
	i := 0
	var cycle uint64
	for ; cycle < 1_000_000; cycle++ {
		for i < len(reqs) && c.Push(reqs[i]) {
			i++
		}
		c.Tick(cycle)
		if i == len(reqs) && c.Drained() {
			break
		}
	}
	for _, r := range reqs {
		if !r.Done {
			t.Fatal("request never completed")
		}
	}
	if c.TotalBytes() != want {
		t.Fatalf("bytes = %d, want %d", c.TotalBytes(), want)
	}
	served := c.ServedBy(mem.ClientCPU) + c.ServedBy(mem.ClientGPU) + c.ServedBy(mem.ClientDisplay)
	if served != int64(len(reqs)) {
		t.Fatalf("served = %d, want %d", served, len(reqs))
	}
}

func TestTimelineIntegration(t *testing.T) {
	c := testController(1)
	c.Timeline = stats.NewTimeline(100)
	r := &mem.Request{Addr: 0, Size: 64, Client: mem.ClientDisplay}
	c.Push(r)
	run(t, c, []*mem.Request{r}, 1000)
	if c.Timeline.TotalBytes("display") != 64 {
		t.Fatal("timeline did not record serviced bytes")
	}
}

func TestLPDDR3TimingScales(t *testing.T) {
	fast := LPDDR3Timing(1333)
	slow := LPDDR3Timing(133)
	if slow.BytesPerCycle >= fast.BytesPerCycle {
		t.Fatal("low-frequency DRAM must have lower throughput")
	}
	ratio := fast.BytesPerCycle / slow.BytesPerCycle
	if ratio < 9.9 || ratio > 10.1 {
		t.Fatalf("throughput ratio = %v, want 10x", ratio)
	}
}

func TestMappingString(t *testing.T) {
	g := LPDDR3Geometry(2)
	if s := MappingPageStriped(g).String(); s != "Row:Rank:Bank:Column:Channel" {
		t.Fatalf("page-striped = %q", s)
	}
	if s := MappingLineStriped(g).String(); s != "Row:Column:Rank:Bank:Channel" {
		t.Fatalf("line-striped = %q", s)
	}
}

// TestBankBurstsOverlap pins down the head-of-line fix: a request to a
// ready bank is admitted while another bank's data burst still occupies
// the channel bus, hiding its activate/CAS latency, so bursts from two
// banks land back-to-back on the bus. The old controller refused to
// issue anything until the bus was idle, serializing command and data
// phases across banks.
func TestBankBurstsOverlap(t *testing.T) {
	c := testController(1)
	rowBytes := uint64(c.cfg.Geometry.RowBytes())
	r1 := &mem.Request{Addr: 0, Size: 64}             // bank 0, row 0 (closed)
	r2 := &mem.Request{Addr: rowBytes, Size: 64}      // bank 1, row 0 (closed)
	r3 := &mem.Request{Addr: 64, Size: 64}            // bank 0, row hit
	r4 := &mem.Request{Addr: rowBytes + 64, Size: 64} // bank 1, row hit
	reqs := []*mem.Request{r1, r2, r3, r4}
	for _, r := range reqs {
		if !c.Push(r) {
			t.Fatal("push rejected")
		}
	}
	run(t, c, reqs, 1000)

	// LPDDR3-1333: tRCD 18, tCL 15, burst(64B) 13.
	// r1: closed bank, ACT+CAS 33 + burst 13 -> done at 46.
	// r2: admitted at cycle 31 (busFree 46 <= 31+tCL) while r1's burst
	//     still occupies the bus; ACT+CAS overlaps it, data starts at
	//     64 -> done at 77. Bus-blocking admission would give 92.
	// r3: bank 0 row hit, admitted at 62; CAS overlaps r2's burst and
	//     its data follows back-to-back at 77 -> done at 90.
	if r1.DoneAt != 46 {
		t.Fatalf("r1.DoneAt = %d, want 46", r1.DoneAt)
	}
	if r2.DoneAt != 77 {
		t.Fatalf("r2.DoneAt = %d, want 77 (command latency hidden under r1's burst)", r2.DoneAt)
	}
	if r3.DoneAt != 90 {
		t.Fatalf("r3.DoneAt = %d, want 90 (burst back-to-back after r2's)", r3.DoneAt)
	}
	if burst := r3.DoneAt - r2.DoneAt; burst != 13 {
		t.Fatalf("r3 burst gap = %d cycles, want exactly one 13-cycle burst", burst)
	}
}

// perPickFRFCFS is the parent commit's FR-FCFS, which decoded every
// queued request's address again on every pick; wrapped around the
// shipped scheduler it checks, at every pick of a run, that the
// locations decoded once at Push are still beside their requests and
// give the same answer.
type perPickFRFCFS struct {
	FRFCFS
	t     *testing.T
	picks int
}

func (s *perPickFRFCFS) Pick(ch *Channel, cycle uint64) int {
	want := -1
	for i, r := range ch.Queue {
		loc := ch.mapping.Decode(r.Addr)
		if ch.locs[i] != loc {
			s.t.Fatalf("cycle %d: queue slot %d (%#x) carries location %+v, decodes to %+v", cycle, i, r.Addr, ch.locs[i], loc)
		}
		bk := &ch.banks[loc.Rank][loc.Bank]
		if bk.readyAt > cycle {
			continue
		}
		if bk.openRow == int64(loc.Row) {
			want = i
			break
		}
		if want < 0 {
			want = i
		}
	}
	got := s.FRFCFS.Pick(ch, cycle)
	if got != want {
		s.t.Fatalf("cycle %d ch%d: decode-once pick %d, decode-per-pick %d", cycle, ch.ID, got, want)
	}
	s.picks++
	return got
}

// TestDecodeOnceEqualsDecodePerPick runs a random stream (arrivals
// interleaved with mid-queue removals, so the lockstep copy is
// exercised) through the three ways a request finds its channel and
// mapping: replicated mapping, per-channel mappings without Assign, and
// source routing.
func TestDecodeOnceEqualsDecodePerPick(t *testing.T) {
	g := LPDDR3Geometry(2)
	for name, cfg := range map[string]Config{
		"replicated mapping":   {},
		"per-channel mappings": {Mappings: []Mapping{MappingPageStriped(g), MappingLineStriped(g)}},
		"source routed": {Mappings: []Mapping{MappingPageStriped(g), MappingLineStriped(g)},
			Assign: func(r *mem.Request) int { return int(r.Client) % 3 }}, // 2 is out of range: falls back to the address
	} {
		sched := &perPickFRFCFS{t: t}
		cfg.Name, cfg.Geometry, cfg.Timing, cfg.QueueDepth, cfg.Scheduler = "dram", g, LPDDR3Timing(1333), 12, sched
		c := NewController(cfg, nil)
		rng := rand.New(rand.NewSource(11))
		pushed, done := 0, 0
		var live []*mem.Request
		for cycle := uint64(0); cycle < 20000; cycle++ {
			for k := rng.Intn(3); k > 0; k-- {
				r := &mem.Request{Addr: uint64(rng.Intn(1<<14)) * 64, Size: 64, Client: mem.Client(rng.Intn(3)), IssuedAt: cycle}
				if c.Push(r) {
					pushed++
					live = append(live, r)
				}
			}
			c.Tick(cycle)
			for _, ch := range c.Channels {
				if err := c.checkChannel(ch, cycle); err != nil {
					t.Fatalf("%s: cycle %d: %v", name, cycle, err)
				}
			}
		}
		for _, r := range live {
			if r.Done {
				done++
			}
		}
		if sched.picks < 500 || done < pushed/2 {
			t.Fatalf("%s: stream too thin: %d picks, %d of %d served", name, sched.picks, done, pushed)
		}
	}
}
