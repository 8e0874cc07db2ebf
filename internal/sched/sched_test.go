package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"emerald/internal/dram"
	"emerald/internal/guard"
	"emerald/internal/mem"
)

func dashForTest(useSystemBW bool) *DASH {
	cfg := DefaultDASHConfig(4, useSystemBW)
	cfg.SchedulingUnit = 10
	cfg.SwitchingUnit = 10
	cfg.QuantumLength = 100
	return NewDASH(cfg)
}

func TestDASHUrgencyTracksProgress(t *testing.T) {
	d := dashForTest(false)
	d.RegisterIP(mem.ClientGPU, 0, 1000)
	d.StartFrame(mem.ClientGPU, 0, 0)

	// On schedule at 50% elapsed with 60% done: not urgent.
	d.ReportProgress(mem.ClientGPU, 0, 0.6)
	d.Tick(510)
	if d.urgent(mem.ClientGPU, 0) {
		t.Fatal("ahead-of-schedule IP must not be urgent")
	}
	// Materially behind at 50% elapsed with 10% done: urgent.
	d.ReportProgress(mem.ClientGPU, 0, 0.1)
	d.Tick(520)
	if !d.urgent(mem.ClientGPU, 0) {
		t.Fatal("behind-schedule IP must be urgent")
	}
	// Tail of period, unfinished: urgent even if close to done.
	d.ReportProgress(mem.ClientGPU, 0, 0.95)
	d.Tick(950)
	if !d.urgent(mem.ClientGPU, 0) {
		t.Fatal("IP in deadline tail must be urgent")
	}
	// Finished: never urgent.
	d.ReportProgress(mem.ClientGPU, 0, 1.0)
	d.Tick(960)
	if d.urgent(mem.ClientGPU, 0) {
		t.Fatal("finished IP must not be urgent")
	}
}

func TestDASHClusteringDCBvsDTB(t *testing.T) {
	mkQueue := func(d *DASH) {
		// Serve traffic: core 0 heavy, cores 1-3 light, GPU very heavy.
		g := dram.LPDDR3Geometry(1)
		c := dram.NewController(dram.Config{
			Name: "d", Geometry: g, Timing: dram.LPDDR3Timing(1333), Scheduler: d,
		}, nil)
		var cycle uint64
		push := func(cl mem.Client, id int, n int) {
			for i := 0; i < n; i++ {
				r := &mem.Request{Addr: uint64(i*64) % (1 << 20), Size: 64, Client: cl, ClientID: id}
				for !c.Push(r) {
					c.Tick(cycle)
					cycle++
				}
			}
		}
		push(mem.ClientCPU, 0, 40)
		push(mem.ClientCPU, 1, 2)
		push(mem.ClientCPU, 2, 2)
		push(mem.ClientCPU, 3, 2)
		push(mem.ClientGPU, 0, 400)
		for !c.Drained() {
			c.Tick(cycle)
			cycle++
		}
		// Force quantum boundary.
		d.Tick(cycle + 200_000_000)
	}

	dcb := dashForTest(false)
	dcb.cfg.QuantumLength = 100_000_000 // recluster only via explicit tick above
	mkQueue(dcb)
	dtb := dashForTest(true)
	dtb.cfg.QuantumLength = 100_000_000
	mkQueue(dtb)

	// Under DCB (CPU-only total), core 0 dominates CPU bandwidth and must
	// be intensive.
	if !dcb.intensive[0] {
		t.Fatal("DCB: heavy core must be classified memory-intensive")
	}
	if dcb.intensive[1] {
		t.Fatal("DCB: light core must be non-intensive")
	}
	// Under DTB, GPU bytes inflate the clustering total so even the heavy
	// CPU core fits in the non-intensive budget (the paper's observed
	// hazard of including IP bandwidth).
	if dtb.intensive[0] {
		t.Fatal("DTB: GPU bandwidth should absorb the heavy core into the non-intensive cluster")
	}
}

func TestDASHPickPrefersUrgentIP(t *testing.T) {
	d := dashForTest(false)
	d.RegisterIP(mem.ClientDisplay, 0, 1000)
	d.StartFrame(mem.ClientDisplay, 0, 0)
	d.ReportProgress(mem.ClientDisplay, 0, 0.0)

	g := dram.LPDDR3Geometry(1)
	c := dram.NewController(dram.Config{
		Name: "d", Geometry: g, Timing: dram.LPDDR3Timing(1333), Scheduler: d,
	}, nil)
	ch := c.Channels[0]

	d.Tick(900) // display far behind: urgent

	if !d.urgent(mem.ClientDisplay, 0) {
		t.Fatal("display should be urgent")
	}
	c.Push(&mem.Request{Addr: 0, Size: 64, Client: mem.ClientCPU, ClientID: 0})
	c.Push(&mem.Request{Addr: 1 << 16, Size: 64, Client: mem.ClientDisplay, ClientID: 0})
	if idx := d.Pick(ch, 901); idx != 1 {
		t.Fatalf("Pick = %d, want 1 (urgent display first)", idx)
	}
}

func TestDASHPickPrefersNonIntensiveCPUOverNonUrgentIP(t *testing.T) {
	d := dashForTest(false)
	d.RegisterIP(mem.ClientGPU, 0, 1_000_000)
	d.StartFrame(mem.ClientGPU, 0, 0)
	d.ReportProgress(mem.ClientGPU, 0, 0.9) // well ahead: non-urgent
	d.Tick(10)

	g := dram.LPDDR3Geometry(1)
	c := dram.NewController(dram.Config{
		Name: "d", Geometry: g, Timing: dram.LPDDR3Timing(1333), Scheduler: d,
	}, nil)
	ch := c.Channels[0]
	c.Push(&mem.Request{Addr: 1 << 16, Size: 64, Client: mem.ClientGPU, ClientID: 0})
	c.Push(&mem.Request{Addr: 0, Size: 64, Client: mem.ClientCPU, ClientID: 1})
	if idx := d.Pick(ch, 11); idx != 1 {
		t.Fatalf("Pick = %d, want 1 (non-intensive CPU over non-urgent GPU)", idx)
	}
}

func TestDASHSwitchingProbabilityMoves(t *testing.T) {
	d := dashForTest(false)
	p0 := d.p
	// Pretend IPs were served much more than intensive CPUs.
	d.servedNonUrgentIP = 100
	d.servedIntensiveCPU = 0
	d.Tick(d.nextSwitch)
	if d.p <= p0 {
		t.Fatalf("P should rise when CPU underserved: %v -> %v", p0, d.p)
	}
	d.servedNonUrgentIP = 0
	d.servedIntensiveCPU = 100
	p1 := d.p
	d.Tick(d.nextSwitch)
	if d.p >= p1 {
		t.Fatalf("P should fall when IP underserved: %v -> %v", p1, d.p)
	}
}

func TestHMCRoutesByClient(t *testing.T) {
	g := dram.LPDDR3Geometry(2)
	cfg := HMCDRAM("hmc", g, dram.LPDDR3Timing(1333))
	c := dram.NewController(cfg, nil)
	c.Push(&mem.Request{Addr: 0, Size: 64, Client: mem.ClientCPU})
	c.Push(&mem.Request{Addr: 0, Size: 64, Client: mem.ClientGPU})
	c.Push(&mem.Request{Addr: 64, Size: 64, Client: mem.ClientDisplay})
	if len(c.Channels[0].Queue) != 1 {
		t.Fatalf("CPU channel queue = %d, want 1", len(c.Channels[0].Queue))
	}
	if len(c.Channels[1].Queue) != 2 {
		t.Fatalf("IP channel queue = %d, want 2", len(c.Channels[1].Queue))
	}
	// IP channel mapping spreads consecutive columns across banks.
	ipMap := cfg.Mappings[1]
	stride := uint64(ipMap.ColumnBytes)
	l0 := ipMap.Decode(0)
	l1 := ipMap.Decode(stride)
	if l0.Bank == l1.Bank {
		t.Fatal("line-striped IP mapping should change bank between consecutive columns")
	}
	cpuMap := cfg.Mappings[0]
	c0, c1 := cpuMap.Decode(0), cpuMap.Decode(stride)
	if c0.Bank != c1.Bank || c0.Row != c1.Row {
		t.Fatal("page-striped CPU mapping should keep consecutive columns in one row")
	}
}

func TestBaselineConfigShape(t *testing.T) {
	g := dram.LPDDR3Geometry(2)
	cfg := BaselineDRAM("bas", g, dram.LPDDR3Timing(1333))
	if _, ok := cfg.Scheduler.(*dram.FRFCFS); !ok {
		t.Fatalf("baseline scheduler = %T, want FR-FCFS", cfg.Scheduler)
	}
	if cfg.Assign != nil {
		t.Fatal("baseline must not source-route")
	}
}

func TestDASHDRAMWiring(t *testing.T) {
	g := dram.LPDDR3Geometry(2)
	cfg, d := DASHDRAM("dash", g, dram.LPDDR3Timing(1333), DefaultDASHConfig(4, true))
	if cfg.Scheduler != dram.Scheduler(d) {
		t.Fatal("returned DASH must be the attached scheduler")
	}
	if !d.cfg.UseSystemBW {
		t.Fatal("DASHDRAM dropped the DTB setting")
	}
}

// TestDASHNextWakeContract: no tick before NextWake's answer changes
// DASH's scheduling state (switching probability, urgency, clusters),
// while the display's progress reports move urgency back and forth.
func TestDASHNextWakeContract(t *testing.T) {
	d := NewDASH(DASHConfig{
		SchedulingUnit: 40, SwitchingUnit: 25, QuantumLength: 100,
		ClusterFactor: 0.15, EmergentThreshold: 0.8, GPUEmergent: 0.9,
		NumCPUs: 2, Seed: 1,
	})
	d.RegisterIP(mem.ClientDisplay, 0, 500)
	d.StartFrame(mem.ClientDisplay, 0, 0)
	ip := d.ips[ipKey{mem.ClientDisplay, 0}]
	sig := func() string { return fmt.Sprint(d.p, ip.urgent, d.intensive) }
	flips, last := 0, false
	for cy := uint64(0); cy < 2000; cy++ {
		w := d.NextWake(cy)
		if w < cy {
			t.Fatalf("cycle %d: NextWake = %d is in the past", cy, w)
		}
		before := sig()
		d.Tick(cy)
		if after := sig(); after != before && w > cy {
			t.Fatalf("cycle %d: NextWake = %d, but ticking changed %s to %s", cy, w, before, after)
		}
		if ip.urgent != last {
			last = ip.urgent
			flips++
		}
		switch cy {
		case 250:
			d.ReportProgress(mem.ClientDisplay, 0, 0.2)
		case 500:
			d.StartFrame(mem.ClientDisplay, 0, cy)
			d.ReportProgress(mem.ClientDisplay, 0, 1)
		case 900:
			d.ReportProgress(mem.ClientDisplay, 0, 0.1)
		}
	}
	if flips == 0 {
		t.Fatal("urgency never changed; scheduler state was static")
	}
}

// urgent reports whether an IP is currently classified urgent.
func (d *DASH) urgent(client mem.Client, id int) bool {
	ip, ok := d.ips[ipKey{client, id}]
	return ok && ip.urgent
}

// counting wraps a scheduler to count its picks.
type counting struct {
	dram.Scheduler
	picks int
}

func (s *counting) Pick(ch *dram.Channel, cycle uint64) int {
	s.picks++
	return s.Scheduler.Pick(ch, cycle)
}

// The location a channel decodes once, at Push, stays beside its
// request through every mid-queue removal DASH and HMC make: after
// every cycle the DRAM guard decodes each queued request's address
// again and compares it with the stored location IsRowHit reads.
func TestDecodeOnceEqualsDecodePerPickDASHAndHMC(t *testing.T) {
	g, tm := dram.LPDDR3Geometry(2), dram.LPDDR3Timing(1333)
	dashCfg, _ := DASHDRAM("dash", g, tm, DefaultDASHConfig(2, false))
	for name, cfg := range map[string]dram.Config{"DASH": dashCfg, "HMC": HMCDRAM("hmc", g, tm)} {
		wrapped := &counting{Scheduler: cfg.Scheduler}
		cfg.Scheduler, cfg.QueueDepth = wrapped, 12
		c := dram.NewController(cfg, nil)
		audit := guard.NewChecker()
		c.AttachGuard(audit)
		rng := rand.New(rand.NewSource(5))
		for cycle := uint64(0); cycle < 20000; cycle++ {
			for k := rng.Intn(3); k > 0; k-- {
				c.Push(&mem.Request{Addr: uint64(rng.Intn(1<<14)) * 64, Size: 64,
					Client: mem.Client(rng.Intn(3)), ClientID: rng.Intn(2), IssuedAt: cycle})
			}
			c.Tick(cycle)
			if audit.Tick(cycle); audit.Err() != nil {
				t.Fatalf("%s cycle %d: %v", name, cycle, audit.Err())
			}
		}
		if wrapped.picks < 500 || c.TotalBytes() == 0 {
			t.Fatalf("%s: stream too thin: %d picks, %d bytes", name, wrapped.picks, c.TotalBytes())
		}
	}
}
