package par

// Wheel is a per-component wake index: one slot per component, holding
// the earliest cycle at which that component must next be ticked. No
// simulated system uses one any more: a component that parks memoises
// its own wake against the fill count of the cache that receives its
// outside input (cpu.Core.Park, gpu.GPU.waitUntil), so nothing hooks an
// input path. What is left, NewWheel, Arm and Due, is kept only for the
// benchmark's par.wheel_due_ns driver, which prices a slot's due check;
// ROADMAP item 5 deletes it with that driver. Not safe for concurrent
// use.
type Wheel struct {
	slots []uint64
}

// NewWheel builds a wheel of n slots, all due immediately (slot value
// 0).
func NewWheel(n int) *Wheel {
	return &Wheel{slots: make([]uint64, n)}
}

// Due reports whether the slot's component must be ticked at cycle.
func (w *Wheel) Due(slot int, cycle uint64) bool {
	return w.slots[slot] <= cycle
}

// Arm sets the slot's wake unconditionally.
func (w *Wheel) Arm(slot int, at uint64) { w.slots[slot] = at }
