package runtime

import (
	"math"
	"testing"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// The full ladder round trip: a slow consumer drives the smoothed
// latency above θ and the queue past its water marks, the ladder
// escalates through a tightened bound (x > 0) to rejection, and once the
// fault clears the level walks back to LevelNormal and x back to 0.
func TestDegradationLadderEscalatesAndRecovers(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 64, Seed: 11, InterArrival: 15 * event.Microsecond})
	slow := fault.NewSwitchable(fault.Delay(5*time.Millisecond, nil))
	r := New(m, Config{
		Shards:        1,
		QueueLen:      8,
		Bound:         time.Millisecond, // θ: 5ms service time blows through it
		BeforeProcess: slow.Hook,
	})
	defer r.Close()

	// Flood until the ladder is visibly rejecting at the door.
	deadline := time.Now().Add(10 * time.Second)
	escalated, sawX := false, false
	for !escalated {
		if time.Now().After(deadline) {
			t.Fatalf("ladder never escalated: %+v", r.Snapshot())
		}
		for _, e := range s {
			r.Offer(e)
		}
		snap := r.Snapshot()
		escalated = snap.DegradationLevel >= LevelAdmission && snap.AdmissionRejected > 0
		sawX = sawX || r.Excess() > 0
	}
	if !sawX {
		t.Error("the ladder passed level 2 without tightening the bound")
	}

	// Incident over: consumer is fast again, producer stops. The queue
	// drains, the stale EWMA decays out of the signal, and the ladder
	// must walk back to normal on its own.
	slow.Set(false)
	deadline = time.Now().Add(10 * time.Second)
	for r.DegradationLevel() != LevelNormal {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at level %d after fault cleared: %+v",
				r.DegradationLevel(), r.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}

	if x := r.Excess(); x != 0 {
		t.Errorf("x = %v after the ladder recovered, want 0", x)
	}
	snap := r.Snapshot()
	if snap.EventsProcessed == 0 {
		t.Error("nothing processed during the whole episode")
	}
	// New offers are admitted again at level 0.
	if !r.Offer(s[0]) {
		t.Error("Offer rejected after the ladder recovered to LevelNormal")
	}
}

// With Bound = 0 the ladder must stay disabled: no door rejections, no
// level changes, even under a slow consumer with full queues — the
// pre-ladder contract existing callers rely on.
func TestLadderDisabledWithoutBound(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 64, Seed: 13, InterArrival: 15 * event.Microsecond})
	r := New(m, Config{
		Shards:        1,
		QueueLen:      4,
		BeforeProcess: fault.Delay(500*time.Microsecond, nil),
	})
	defer r.Close()
	for i := 0; i < 20; i++ {
		for _, e := range s {
			r.Offer(e)
		}
	}
	snap := r.Snapshot()
	if snap.DegradationLevel != LevelNormal {
		t.Errorf("DegradationLevel = %d with Bound = 0, want %d", snap.DegradationLevel, LevelNormal)
	}
	if snap.AdmissionRejected != 0 {
		t.Errorf("AdmissionRejected = %d with Bound = 0, want 0", snap.AdmissionRejected)
	}
}

// The ladder's excess fraction is 0 up to the high-water mark, ramps
// linearly to maxLadderExcess at the reject mark and stays there.
func TestLadderFillRamp(t *testing.T) {
	for _, c := range []struct{ fill, want float64 }{
		{0, 0},
		{0.5, 0},
		{highWater, 0},
		{0.8, 0.225},
		{0.85, 0.45},
		{rejectWater, maxLadderExcess},
		{1, maxLadderExcess},
		{2, maxLadderExcess},
	} {
		if got := fillRamp(c.fill); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("fillRamp(%g) = %g, want %g", c.fill, got, c.want)
		}
	}
}
