package par

import "testing"

// TestWheelArmDue pins the slot semantics: fresh slots are due, and an
// armed slot is due from its cycle on.
func TestWheelArmDue(t *testing.T) {
	w := NewWheel(3)
	if len(w.slots) != 3 {
		t.Fatalf("Len = %d, want 3", len(w.slots))
	}
	for i := 0; i < 3; i++ {
		if !w.Due(i, 0) {
			t.Fatalf("fresh slot %d not due at cycle 0", i)
		}
	}
	w.Arm(1, 100)
	if w.Due(1, 99) {
		t.Fatal("slot armed at 100 due at 99")
	}
	if !w.Due(1, 100) {
		t.Fatal("slot armed at 100 not due at 100")
	}
	w.Arm(1, 40) // an owner's re-arm may move the wake either way
	if !w.Due(1, 40) || w.Due(1, 39) {
		t.Fatal("re-arm at 40 did not move the wake")
	}
}
