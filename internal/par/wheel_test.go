package par

import "testing"

// TestWheelArmWake pins the slot semantics: fresh slots are due, Arm
// moves the wake anywhere, Wake only ever pulls it forward.
func TestWheelArmWake(t *testing.T) {
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
	w.Wake(1, 200) // later than armed: must not move
	if w.At(1) != 100 {
		t.Fatalf("Wake moved wake later: %d", w.At(1))
	}
	w.Wake(1, 40)
	if w.At(1) != 40 {
		t.Fatalf("Wake(40) left wake at %d", w.At(1))
	}
	w.Arm(1, 500) // owner re-arm may move later
	if w.At(1) != 500 {
		t.Fatalf("Arm(500) left wake at %d", w.At(1))
	}
	if got := w.Min(); got != 0 {
		t.Fatalf("Min = %d, want 0 (slots 0 and 2 unarmed)", got)
	}
	w.Arm(0, 300)
	w.Arm(2, 250)
	if got := w.Min(); got != 250 {
		t.Fatalf("Min = %d, want 250", got)
	}
}
