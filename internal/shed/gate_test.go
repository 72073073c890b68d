package shed

import (
	"sync"
	"testing"
)

func TestDropGateZeroValueAndClearAdmitEverything(t *testing.T) {
	var g DropGate
	if g.ShouldDrop("A") || g.Probs() != nil {
		t.Fatal("zero gate drops or reports a table")
	}
	g.Set(map[string]float64{"A": 1})
	if !g.ShouldDrop("A") {
		t.Fatal("p = 1 admitted an event")
	}
	for _, clear := range []map[string]float64{nil, {}} {
		g.Set(map[string]float64{"A": 1})
		g.Set(clear)
		if g.ShouldDrop("A") || g.Probs() != nil {
			t.Fatalf("Set(%v) did not clear the gate", clear)
		}
	}
}

func TestDropGateIsPerClass(t *testing.T) {
	var g DropGate
	g.Set(map[string]float64{"always": 1, "over": 1.5, "never": 0, "negative": -1})
	for i := 0; i < 1000; i++ {
		if !g.ShouldDrop("always") || !g.ShouldDrop("over") {
			t.Fatal("p >= 1 admitted an event")
		}
		if g.ShouldDrop("never") || g.ShouldDrop("negative") || g.ShouldDrop("absent") {
			t.Fatal("p <= 0 or an absent class dropped an event")
		}
	}
	if p := g.Probs(); len(p) != 4 || p["always"] != 1 {
		t.Fatalf("Probs() = %v", p)
	}
}

// The coin is shared by concurrent producers: the realized drop rate
// must still track the published probability, and a table swapped in
// mid-stream takes effect without a lock.
func TestDropGateRateTracksProbabilityUnderConcurrency(t *testing.T) {
	var g DropGate
	g.Set(map[string]float64{"A": 0.3})
	const workers, each = 8, 5000
	drops := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if g.ShouldDrop("A") {
					drops[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range drops {
		total += n
	}
	if rate := float64(total) / (workers * each); rate < 0.27 || rate > 0.33 {
		t.Errorf("dropped %.3f of events at p = 0.3", rate)
	}
	g.Set(map[string]float64{"A": 1})
	if !g.ShouldDrop("A") {
		t.Error("republished table not in effect")
	}
}
