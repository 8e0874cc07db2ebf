package dram

import "emerald/internal/mem"

// Scheduler selects the next request a channel should service. Pick
// returns an index into ch.Queue, or -1 to idle this cycle, and must
// only return requests whose bank is ready (ch.BankReady) — the
// controller refuses to issue to a busy bank. Schedulers may keep
// cross-channel state; Tick is called once per controller cycle before
// any Pick, on the coordinator. Under the parallel tick engine, Pick
// runs concurrently for different channels, so any mutable
// cross-channel state it touches must be commutative and atomic (see
// sched.DASH's bandwidth tallies).
// NextWake reports the earliest future cycle at which Tick would do
// something (deadline-driven schedulers return their next deadline;
// stateless ones return mem.NeverWake), letting the tick loops skip
// quiescent stretches without missing a scheduling event.
type Scheduler interface {
	Pick(ch *Channel, cycle uint64) int
	Tick(cycle uint64)
	NextWake(cycle uint64) uint64
	Name() string
}

// FRFCFS is first-ready, first-come-first-served: among queued requests
// whose bank can accept a command, row-buffer hits win; ties break by
// arrival order (queue position). This is the paper's baseline (Table 4).
type FRFCFS struct{}

// NewFRFCFS returns the baseline scheduler.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// Name implements Scheduler.
func (f *FRFCFS) Name() string { return "FR-FCFS" }

// Tick implements Scheduler.
func (f *FRFCFS) Tick(uint64) {}

// NextWake implements Scheduler: FR-FCFS keeps no cross-cycle state.
func (f *FRFCFS) NextWake(uint64) uint64 { return mem.NeverWake }

// Pick implements Scheduler.
func (f *FRFCFS) Pick(ch *Channel, cycle uint64) int {
	firstReady := -1
	for i := range ch.Queue {
		if !ch.BankReady(i, cycle) {
			continue
		}
		if ch.IsRowHit(i) {
			return i // first row hit in arrival order
		}
		if firstReady < 0 {
			firstReady = i
		}
	}
	return firstReady
}
