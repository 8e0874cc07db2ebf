package par

import "sync/atomic"

// Wheel is a per-shard wake index for the tick engine: one slot per
// shard-owned component, holding the earliest cycle at which that
// component must next be ticked. The SoC owns the only one — its
// phase-1 shards, a slot per CPU core and one for the display. A shard
// body consults its slot before doing any work (Due) and re-arms it
// after ticking with the component's own NextWake (Arm); anything that
// delivers new input to a parked component — a retiring DRAM read, a
// frame flip — pulls the wake forward (Wake), so within a busy period
// parked components are never ticked at all while their neighbours run
// hot.
//
// Correctness contract: a slot value w > c asserts that the
// component's Tick at every cycle in [c, w) would be a gated no-op.
// Owners establish this by arming with NextWake, which is the earliest
// cycle the component's state can change *on its own*; every external
// input path must therefore call Wake, or the component sleeps through
// the event. scripts/check.sh cross-checks the digest gates with the
// wheel on and off and keeps Wake/Arm call sites inside internal/soc,
// and the EMERALD_GUARD wheel audit re-verifies every skipped slot
// against NextWake at runtime.
//
// Arm is a plain store and may only be called by the slot's owner (the
// shard that ticks the component, between phases or inside its own
// shard body). Wake is an atomic min, safe from any shard — retire
// callbacks on parallel DRAM channel shards wake CPU slots through it
// without ordering beyond "visible at the next phase barrier", which
// the Pool's epoch protocol provides.
type Wheel struct {
	slots []atomic.Uint64
}

// NewWheel builds a wheel of n slots, all due immediately (slot value
// 0), so the first cycle ticks every component once and lets each
// owner arm its real wake.
func NewWheel(n int) *Wheel {
	return &Wheel{slots: make([]atomic.Uint64, n)}
}

// Len returns the slot count.
func (w *Wheel) Len() int { return len(w.slots) }

// Due reports whether the slot's component must be ticked at cycle.
func (w *Wheel) Due(slot int, cycle uint64) bool {
	return w.slots[slot].Load() <= cycle
}

// At returns the slot's current wake cycle.
func (w *Wheel) At(slot int) uint64 { return w.slots[slot].Load() }

// Arm sets the slot's wake unconditionally. Owner-only: callers must
// hold exclusive ownership of the component (its own shard body, or a
// serial phase), because Arm can move a wake *later* and would
// otherwise race with a concurrent Wake.
func (w *Wheel) Arm(slot int, at uint64) { w.slots[slot].Store(at) }

// Wake pulls the slot's wake forward to at if it is currently later.
// Safe from any goroutine; never moves a wake later.
func (w *Wheel) Wake(slot int, at uint64) {
	s := &w.slots[slot]
	for {
		cur := s.Load()
		if cur <= at || s.CompareAndSwap(cur, at) {
			return
		}
	}
}

// Min returns the earliest wake across all slots.
func (w *Wheel) Min() uint64 {
	m := ^uint64(0)
	for i := range w.slots {
		if v := w.slots[i].Load(); v < m {
			m = v
		}
	}
	return m
}
