package shed

import "testing"

func TestAdmissionDropProbabilityRamp(t *testing.T) {
	a := NewAdmissionController(0.75, 0.95)
	if p := a.DropProbability(0.5); p != 0 {
		t.Errorf("below high water: p = %g, want 0", p)
	}
	if p := a.DropProbability(0.75); p != 0 {
		t.Errorf("at high water: p = %g, want 0", p)
	}
	mid := a.DropProbability(0.85)
	if mid <= 0 || mid >= a.MaxDrop {
		t.Errorf("mid-band p = %g, want in (0, %g)", mid, a.MaxDrop)
	}
	if p := a.DropProbability(0.95); p != a.MaxDrop {
		t.Errorf("at full water: p = %g, want MaxDrop %g", p, a.MaxDrop)
	}
	if p := a.DropProbability(2.0); p != a.MaxDrop {
		t.Errorf("past full water: p = %g, want capped at %g", p, a.MaxDrop)
	}
}

func TestAdmissionAlwaysAdmitsBelowHighWater(t *testing.T) {
	a := NewAdmissionController(0.75, 0.95)
	for i := 0; i < 1000; i++ {
		if !a.Admit(0.6) {
			t.Fatal("rejected an offer below the high-water mark")
		}
	}
}

func TestAdmissionRejectionRateTracksProbability(t *testing.T) {
	a := NewAdmissionController(0.75, 0.95)
	const n = 10000
	rejected := 0
	for i := 0; i < n; i++ {
		if !a.Admit(0.95) { // p = MaxDrop = 0.9
			rejected++
		}
	}
	if rejected < 8500 || rejected > 9500 {
		t.Errorf("rejected %d/%d at p=0.9", rejected, n)
	}
}

func TestAdmissionDegenerateBand(t *testing.T) {
	// full <= high must not divide by zero; the constructor widens it.
	a := NewAdmissionController(0.9, 0.9)
	if a.Full <= a.High {
		t.Fatalf("constructor kept degenerate band high=%g full=%g", a.High, a.Full)
	}
	if p := a.DropProbability(0.95); p <= 0 || p > a.MaxDrop {
		t.Errorf("p = %g in widened band, want in (0, %g]", p, a.MaxDrop)
	}
}
