// Package sched implements the SoC memory-scheduling proposals the paper
// re-evaluates in Case Study I: the DASH deadline-aware scheduler (Usui
// et al., building on TCM clustering) and the HMC heterogeneous
// memory-controller organization (Nachiappan et al.). Both plug into the
// dram.Controller; the baseline is dram.FRFCFS.
package sched

import (
	"cmp"
	"math/rand"
	"slices"

	"emerald/internal/dram"
	"emerald/internal/mem"
)

// DASHConfig mirrors the paper's Table 3.
type DASHConfig struct {
	SchedulingUnit    uint64  // cycles between urgency re-evaluation
	SwitchingUnit     uint64  // cycles between probability updates
	QuantumLength     uint64  // cycles per TCM clustering quantum
	ClusterFactor     float64 // TCM ClusterThresh
	EmergentThreshold float64 // elapsed fraction after which an IP turns urgent
	GPUEmergent       float64 // GPU-specific emergent threshold
	// UseSystemBW selects the DTB variant (cluster against total system
	// bandwidth) versus DCB (CPU-only bandwidth). The paper evaluates
	// both because the TCM definition is ambiguous for SoCs (§5.1.1).
	UseSystemBW bool
	NumCPUs     int
	Seed        int64
}

// DefaultDASHConfig returns Table 3's parameters.
func DefaultDASHConfig(numCPUs int, useSystemBW bool) DASHConfig {
	return DASHConfig{
		SchedulingUnit:    1000,
		SwitchingUnit:     500,
		QuantumLength:     1_000_000,
		ClusterFactor:     0.15,
		EmergentThreshold: 0.8,
		GPUEmergent:       0.9,
		UseSystemBW:       useSystemBW,
		NumCPUs:           numCPUs,
		Seed:              1,
	}
}

type ipState struct {
	period     uint64 // frame period in cycles
	frameStart uint64
	progress   float64 // fraction of this frame's work completed
	urgent     bool
	emergent   float64 // per-IP emergent threshold
}

// DASH is the deadline-aware scheduler. The SoC model feeds it frame
// progress via StartFrame/ReportProgress; the scheduler classifies CPU
// cores into TCM-style bandwidth clusters each quantum.
type DASH struct {
	cfg DASHConfig
	rng *rand.Rand

	// ips[client][id] is an IP block's state, nil if unregistered: a
	// lookup per queued IP request on every pick indexes, never hashes.
	ips [][]*ipState

	// Clustering state. The byte/served tallies are bumped from Pick;
	// everything else changes only in Tick.
	cpuBytes  []uint64 // bytes this quantum, per CPU core
	ipBytes   uint64   // IP bytes this quantum (for DTB)
	intensive []bool   // per-core: memory-intensive this quantum?
	cores     []coreBW // recluster's sort buffer, one per core

	// Probabilistic switching state.
	p                  float64 // probability intensive CPU beats non-urgent IP
	servedIntensiveCPU uint64
	servedNonUrgentIP  uint64
	coinIsCPU          bool // this switching-window coin flip

	nextSchedule, nextSwitch, nextQuantum uint64
}

// NewDASH creates the scheduler.
func NewDASH(cfg DASHConfig) *DASH {
	d := &DASH{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		cpuBytes:  make([]uint64, cfg.NumCPUs),
		intensive: make([]bool, cfg.NumCPUs),
		cores:     make([]coreBW, cfg.NumCPUs),
		p:         0.5,
	}
	d.coinIsCPU = d.rng.Float64() < d.p
	return d
}

// SchedulingUnit returns the configured urgency re-evaluation interval
// in cycles — the cadence at which the SoC must refresh DASH's frame
// progress feedback (Table 3).
func (d *DASH) SchedulingUnit() uint64 { return d.cfg.SchedulingUnit }

// RegisterIP declares an IP block with its frame period in cycles. The
// paper classifies both the GPU (33 ms) and the display (16 ms) as
// long-deadline IPs.
func (d *DASH) RegisterIP(client mem.Client, id int, periodCycles uint64) {
	emergent := d.cfg.EmergentThreshold
	if client == mem.ClientGPU {
		emergent = d.cfg.GPUEmergent
	}
	for int(client) >= len(d.ips) {
		d.ips = append(d.ips, nil)
	}
	for id >= len(d.ips[client]) {
		d.ips[client] = append(d.ips[client], nil)
	}
	d.ips[client][id] = &ipState{period: periodCycles, emergent: emergent}
}

// ip returns a registered IP block's state, or nil.
func (d *DASH) ip(client mem.Client, id int) *ipState {
	if int(client) < len(d.ips) && id >= 0 && id < len(d.ips[client]) {
		return d.ips[client][id]
	}
	return nil
}

// StartFrame resets an IP's deadline window at the given cycle.
func (d *DASH) StartFrame(client mem.Client, id int, cycle uint64) {
	if ip := d.ip(client, id); ip != nil {
		ip.frameStart = cycle
		ip.progress = 0
		ip.urgent = false
	}
}

// ReportProgress updates the fraction [0,1] of the IP's current frame
// workload that has completed. The SoC calls this as rendering/scan-out
// advances; DASH's novelty is exactly this deadline feedback.
func (d *DASH) ReportProgress(client mem.Client, id int, progress float64) {
	if ip := d.ip(client, id); ip != nil {
		ip.progress = progress
	}
}

// Tick implements dram.Scheduler: periodic urgency evaluation, switching
// probability update, and TCM quantum re-clustering.
func (d *DASH) Tick(cycle uint64) {
	if cycle >= d.nextSchedule {
		d.nextSchedule = cycle + d.cfg.SchedulingUnit
		for _, ips := range d.ips {
			for _, ip := range ips {
				if ip == nil || ip.period == 0 {
					continue
				}
				elapsed := float64(cycle-ip.frameStart) / float64(ip.period)
				// Urgent when materially behind the deadline-proportional
				// expected progress (the emergent threshold sets how much
				// slack the IP gets: 0.9 for the GPU, 0.8 otherwise), or in
				// the tail of the period with the frame unfinished.
				ip.urgent = ip.progress < 1 &&
					(ip.progress < ip.emergent*elapsed || elapsed > ip.emergent)
			}
		}
	}
	if cycle >= d.nextSwitch {
		d.nextSwitch = cycle + d.cfg.SwitchingUnit
		// Balance service between intensive CPU and non-urgent IPs by
		// steering P toward whichever was underserved.
		cpu, ip := d.servedIntensiveCPU, d.servedNonUrgentIP
		if cpu > ip {
			d.p -= 0.05
		} else if cpu < ip {
			d.p += 0.05
		}
		if d.p < 0.05 {
			d.p = 0.05
		}
		if d.p > 0.95 {
			d.p = 0.95
		}
		d.servedIntensiveCPU = 0
		d.servedNonUrgentIP = 0
		d.coinIsCPU = d.rng.Float64() < d.p
	}
	if cycle >= d.nextQuantum {
		d.nextQuantum = cycle + d.cfg.QuantumLength
		d.recluster()
	}
}

// NextWake implements dram.Scheduler: the earliest of the three
// periodic deadlines (urgency evaluation, switching-probability
// update, quantum re-clustering). DASH is never fully quiescent — its
// windows advance with wall-clock cycles — so the tick loops' idle
// jumps are clamped to these deadlines, keeping the deadline checks
// (and the rng draw per switching window) on exactly the same cycles
// as an unskipped run.
func (d *DASH) NextWake(cycle uint64) uint64 {
	w := d.nextSchedule
	if d.nextSwitch < w {
		w = d.nextSwitch
	}
	if d.nextQuantum < w {
		w = d.nextQuantum
	}
	if w <= cycle {
		return cycle
	}
	return w
}

// recluster performs TCM-style clustering: cores are sorted by bandwidth
// usage and the lowest-usage cores whose cumulative share stays within
// ClusterFactor of the clustering total form the non-intensive cluster.
func (d *DASH) recluster() {
	var cpuTotal uint64
	for i := range d.cpuBytes {
		cpuTotal += d.cpuBytes[i]
	}
	clusterTotal := cpuTotal
	if d.cfg.UseSystemBW {
		clusterTotal += d.ipBytes
	}
	cores := d.cores
	for i := range d.cpuBytes {
		cores[i] = coreBW{i, d.cpuBytes[i]}
	}
	slices.SortFunc(cores, func(a, b coreBW) int { return cmp.Compare(a.bytes, b.bytes) })
	budget := uint64(d.cfg.ClusterFactor * float64(clusterTotal))
	var used uint64
	for i := range d.intensive {
		d.intensive[i] = true
	}
	for _, c := range cores {
		if used+c.bytes <= budget {
			used += c.bytes
			d.intensive[c.core] = false
		}
	}
	for i := range d.cpuBytes {
		d.cpuBytes[i] = 0
	}
	d.ipBytes = 0
}

// coreBW is one core's bandwidth this quantum.
type coreBW struct {
	core  int
	bytes uint64
}

// priority classes, lower wins.
const (
	prioUrgentIP = iota
	prioNonIntensiveCPU
	prioMid // shared by non-urgent IP and intensive CPU (probabilistic)
	prioLast
)

func (d *DASH) classify(r *mem.Request) int {
	if r.Client.IsIP() {
		if ip := d.ip(r.Client, r.ClientID); ip != nil && ip.urgent {
			return prioUrgentIP
		}
		if d.coinIsCPU {
			return prioLast // intensive CPU wins this window
		}
		return prioMid
	}
	if r.ClientID < len(d.intensive) && !d.intensive[r.ClientID] {
		return prioNonIntensiveCPU
	}
	if d.coinIsCPU {
		return prioMid
	}
	return prioLast
}

// Pick implements dram.Scheduler: highest priority class first, then
// FR-FCFS within the class.
func (d *DASH) Pick(ch *dram.Channel, cycle uint64) int {
	best := -1
	bestClass := prioLast + 1
	bestHit := false
	for i, r := range ch.Queue {
		if !ch.BankReady(i, cycle) {
			continue
		}
		class := d.classify(r)
		hit := ch.IsRowHit(i)
		if class < bestClass || (class == bestClass && hit && !bestHit) {
			best, bestClass, bestHit = i, class, hit
		}
	}
	if best >= 0 {
		r := ch.Queue[best]
		// Bandwidth accounting for clustering and switching balance.
		if r.Client == mem.ClientCPU {
			if r.ClientID < len(d.cpuBytes) {
				d.cpuBytes[r.ClientID] += uint64(r.Size)
			}
			if r.ClientID < len(d.intensive) && d.intensive[r.ClientID] {
				d.servedIntensiveCPU++
			}
		} else {
			d.ipBytes += uint64(r.Size)
			if bestClass != prioUrgentIP {
				d.servedNonUrgentIP++
			}
		}
	}
	return best
}

var _ dram.Scheduler = (*DASH)(nil)
