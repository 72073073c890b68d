package runtime

import (
	"testing"
	"time"

	"cepshed/internal/core"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
)

func trainTestModel(t *testing.T, m *nfa.Machine) *core.Model {
	t.Helper()
	training := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: 40 * event.Microsecond})
	model, err := core.Train(m, training, core.TrainConfig{Slices: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func checkConservation(t *testing.T, snap Snapshot) {
	t.Helper()
	var inTot, shedTot, procTot, quarTot uint64
	for _, ss := range snap.Shards {
		if ss.EventsIn != ss.EventsShed+ss.EventsProcessed+ss.Quarantined {
			t.Errorf("shard %d conservation broken: in=%d shed=%d processed=%d quarantined=%d",
				ss.Shard, ss.EventsIn, ss.EventsShed, ss.EventsProcessed, ss.Quarantined)
		}
		inTot += ss.EventsIn
		shedTot += ss.EventsShed
		procTot += ss.EventsProcessed
		quarTot += ss.Quarantined
	}
	if inTot != shedTot+procTot+quarTot {
		t.Errorf("aggregate conservation broken: in=%d shed=%d processed=%d quarantined=%d",
			inTot, shedTot, procTot, quarTot)
	}
}

// TestFixedRatioConservation runs both fixed-ratio variants through the
// concurrent runtime (run under -race in CI): the dense bucketed
// implementation must keep the arrival accounting conserved —
// events_in == shed + processed + quarantined — while actually shedding
// (events in input mode, partial matches in state mode).
func TestFixedRatioConservation(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	model := trainTestModel(t, m)
	for _, tc := range []struct {
		name  string
		input bool
	}{
		{name: "HyI-input", input: true},
		{name: "HyS-state", input: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(m, Config{
				Shards:   2,
				QueueLen: 256,
				NewStrategy: func(shard int) shed.Strategy {
					return core.NewFixedRatioHybrid(model, 0.4, tc.input, int64(shard)+1)
				},
			})
			s := gen.DS1(gen.DS1Config{Events: 8000, Seed: 5, InterArrival: 40 * event.Microsecond})
			for _, e := range s {
				for !r.Offer(e) {
					time.Sleep(50 * time.Microsecond)
				}
			}
			r.Close()
			snap := r.Snapshot()
			checkConservation(t, snap)
			if got := snap.EventsIn; got != uint64(len(s)) {
				t.Fatalf("EventsIn = %d, want %d", got, len(s))
			}
			if tc.input && snap.EventsShed == 0 {
				t.Error("input-mode fixed ratio shed no events")
			}
			if !tc.input && snap.DroppedPMs == 0 {
				t.Error("state-mode fixed ratio dropped no partial matches")
			}
			// The class-bucket occupancy published at batch boundaries must
			// agree with the engine's live count after the final batch.
			for _, ss := range snap.Shards {
				if ss.ClassLivePMs != ss.LivePMs {
					t.Errorf("shard %d: class index live %d != live PMs %d", ss.Shard, ss.ClassLivePMs, ss.LivePMs)
				}
				if ss.LivePMs > 0 && ss.ClassBuckets == 0 {
					t.Errorf("shard %d: live PMs but no class buckets", ss.Shard)
				}
			}
			// Q1 joins on ID with ten IDs per shard-worth of stream: the
			// dispatch index must report both work done and work skipped.
			if snap.IndexVisited == 0 || snap.IndexPruned == 0 {
				t.Errorf("index counters not published: visited %d, pruned %d", snap.IndexVisited, snap.IndexPruned)
			}
		})
	}
}

// TestAsyncPlannerThroughRuntime exercises the full wiring: a Hybrid
// strategy with AsyncPlan under a violated bound must report planner
// activity, sampled admission time and adaptation epochs through
// Runtime.Snapshot.
func TestAsyncPlannerThroughRuntime(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	model := trainTestModel(t, m)
	r := New(m, Config{
		Shards:   1,
		QueueLen: 1024,
		NewStrategy: func(int) shed.Strategy {
			// A nanosecond bound is always violated by real queueing
			// latency, so shedding triggers as soon as the delay allows.
			return core.NewHybrid(model, core.Config{
				Bound:       event.Time(1),
				DelayEvents: 200,
				AsyncPlan:   true,
				Adapt:       true,
			})
		},
	})
	s := gen.DS1(gen.DS1Config{Events: 12000, Seed: 6, InterArrival: 40 * event.Microsecond})
	for _, e := range s {
		for !r.Offer(e) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.Snapshot().PlansApplied+r.Snapshot().PlansStale == 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Close()
	snap := r.Snapshot()
	checkConservation(t, snap)
	if snap.PlansBuilt == 0 {
		t.Error("async planner built no plans under a violated bound")
	}
	if snap.PlansApplied+snap.PlansStale != snap.PlansBuilt {
		// Close drains every queued event, so the last built plan is
		// either applied or fenced by then — except a plan finishing after
		// the final Control, which stays pending.
		if snap.PlansBuilt-snap.PlansApplied-snap.PlansStale > 1 {
			t.Errorf("plan accounting off: built=%d applied=%d stale=%d",
				snap.PlansBuilt, snap.PlansApplied, snap.PlansStale)
		}
	}
	if snap.PlansApplied > 0 && snap.PlanBuildNsMax <= 0 {
		t.Error("plans applied but no build time recorded")
	}
	if snap.AdmissionNs <= 0 {
		t.Errorf("AdmissionNs = %d, want > 0 (sampled every 64th event over %d events)", snap.AdmissionNs, len(s))
	}
	if snap.ShedStallMaxNs <= 0 {
		t.Error("no worker shed-stall recorded despite planner activity")
	}
	if snap.AdaptFolds == 0 {
		t.Error("no adaptation epochs reported over a stream spanning many windows")
	}
}
