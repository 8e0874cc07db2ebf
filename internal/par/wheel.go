package par

// Wheel is a per-component wake index: one slot per component, holding
// the earliest cycle at which that component must next be ticked. The
// SoC owns the only one — a slot per CPU core and one for the display.
// The tick consults a slot before doing any work (Due) and re-arms it
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
// Arm may be called only where the component ticks, since it can move a
// wake later. Like everything a system owns, a Wheel is not safe for
// concurrent use.
type Wheel struct {
	slots []uint64
}

// NewWheel builds a wheel of n slots, all due immediately (slot value
// 0), so the first cycle ticks every component once and lets each
// owner arm its real wake.
func NewWheel(n int) *Wheel {
	return &Wheel{slots: make([]uint64, n)}
}

// Due reports whether the slot's component must be ticked at cycle.
func (w *Wheel) Due(slot int, cycle uint64) bool {
	return w.slots[slot] <= cycle
}

// At returns the slot's current wake cycle.
func (w *Wheel) At(slot int) uint64 { return w.slots[slot] }

// Arm sets the slot's wake unconditionally.
func (w *Wheel) Arm(slot int, at uint64) { w.slots[slot] = at }

// Wake pulls the slot's wake forward to at if it is currently later; it
// never moves a wake later.
func (w *Wheel) Wake(slot int, at uint64) { w.slots[slot] = min(w.slots[slot], at) }

// Min returns the earliest wake across all slots.
func (w *Wheel) Min() uint64 {
	m := ^uint64(0)
	for _, v := range w.slots {
		m = min(m, v)
	}
	return m
}
