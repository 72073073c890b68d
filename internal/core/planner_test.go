package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
)

// feedAsync drives the strategy like the runtime does: admit, process,
// Control with the given smoothed latency.
func feedAsync(h *Hybrid, en *engine.Engine, s event.Stream, lat event.Time) {
	for _, e := range s {
		if !h.AdmitEvent(e, e.Time) {
			continue
		}
		en.Process(e)
		h.Control(e.Time, lat)
	}
}

// driveLaunch issues violated Control calls until the incremental
// population snapshot completes and the build is handed to the planner
// goroutine (one bounded chunk of the class-bucket walk per call).
func driveLaunch(t *testing.T, h *Hybrid) {
	t.Helper()
	for i := 0; i < 100; i++ {
		h.Control(h.now, event.Millisecond)
		if !h.snapping {
			return
		}
	}
	t.Fatal("snapshot accumulation did not complete")
}

// driveDrop issues Control calls until the applied plan's incremental
// state drop has retired its whole shedding set.
func driveDrop(t *testing.T, h *Hybrid) {
	t.Helper()
	for i := 0; i < 1000 && h.dropping != nil; i++ {
		h.Control(h.now, event.Millisecond)
	}
	if h.dropping != nil {
		t.Fatal("incremental drop did not complete")
	}
}

// waitPlans polls until the planner has built at least n plans.
func waitPlans(t *testing.T, h *Hybrid, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.PlanStats().PlansBuilt < n {
		if time.Now().After(deadline) {
			t.Fatalf("planner built %d plans, want >= %d", h.PlanStats().PlansBuilt, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncPlannerLifecycle drives the async loop one Control call at a
// time: a bound violation launches a planner build off the worker; the
// next Control applies the finished plan — partial matches drop, the
// compiled admission filter activates — and the counters record one
// applied, zero stale.
func TestAsyncPlannerLifecycle(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 1})
	h := NewHybrid(model, Config{Bound: event.Microsecond, DelayEvents: 10, AsyncPlan: true})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	live := gen.DS1(gen.DS1Config{Events: 2000, Seed: 21, InterArrival: testIA})

	// Build population without triggering (latency under the bound).
	feedAsync(h, en, live[:600], 0)
	if got := h.PlanStats(); got.PlansBuilt != 0 || h.InputActive() {
		t.Fatalf("planner ran under the bound: %+v inputActive=%v", got, h.InputActive())
	}

	// Violated Controls accumulate the snapshot chunk by chunk; the one
	// that completes it launches a build, and the worker keeps going.
	driveLaunch(t, h)
	waitPlans(t, h, 1)
	if got := h.PlanStats(); got.PlansApplied != 0 || got.PlansStale != 0 {
		t.Fatalf("plan consumed before any further Control ran: %+v", got)
	}

	// The next Control applies it (input filter immediately, state drop
	// in bounded chunks across further calls).
	before := en.Stats().DroppedPMs
	h.Control(h.now, event.Millisecond)
	got := h.PlanStats()
	if got.PlansApplied != 1 || got.PlansStale != 0 {
		t.Fatalf("plan not applied: %+v", got)
	}
	if !h.InputActive() || h.table.Load() == nil {
		t.Fatalf("applied plan did not activate the input filter")
	}
	driveDrop(t, h)
	if en.Stats().DroppedPMs <= before {
		t.Fatalf("applied plan dropped nothing: %d -> %d", before, en.Stats().DroppedPMs)
	}
	if got.BuildNsLast <= 0 || got.BuildNsMax < got.BuildNsLast {
		t.Fatalf("build timings not recorded: %+v", got)
	}

	// Back under the bound: input shedding deactivates.
	h.Control(h.now, 0)
	if h.InputActive() {
		t.Fatal("input shedding still active under the bound")
	}
}

// TestAsyncPlannerDiscardsStale pins the drop-epoch fence: a plan built
// for a population that was flushed before the worker could apply it
// must be discarded, not applied to the unrelated new population.
func TestAsyncPlannerDiscardsStale(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 2})
	h := NewHybrid(model, Config{Bound: event.Microsecond, DelayEvents: 10, AsyncPlan: true})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	live := gen.DS1(gen.DS1Config{Events: 2000, Seed: 22, InterArrival: testIA})

	feedAsync(h, en, live[:600], 0)
	driveLaunch(t, h)
	waitPlans(t, h, 1)

	// Retire the population the plan was built for.
	en.Flush()
	before := en.Stats().DroppedPMs

	h.Control(h.now, event.Millisecond)
	got := h.PlanStats()
	if got.PlansStale != 1 || got.PlansApplied != 0 {
		t.Fatalf("stale plan not discarded: %+v", got)
	}
	if en.Stats().DroppedPMs != before {
		t.Fatalf("stale plan dropped matches: %d -> %d", before, en.Stats().DroppedPMs)
	}
	if h.InputActive() {
		t.Fatal("stale plan activated input shedding")
	}

	// The fence clears planInFlight, so after the delay window a fresh
	// violation replans against the new population.
	feedAsync(h, en, live[600:1400], 0)
	driveLaunch(t, h)
	waitPlans(t, h, 2)
	h.Control(h.now, event.Millisecond)
	if got := h.PlanStats(); got.PlansApplied != 1 || got.PlansStale != 1 {
		t.Fatalf("replan after stale discard not applied: %+v", got)
	}
}

// TestSyncAndAsyncTriggersAgree seeds one partial-match population into
// two engines and gives a synchronous and an asynchronous Hybrid the same
// violated latency. AsyncPlan only says where the trigger's steps run,
// so once the async plan has landed both must hold the same shedding
// set, keep the same live partial matches and give the same admission
// verdicts; the in-line trigger counts its plan like the planner does.
func TestSyncAndAsyncTriggersAgree(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 1})
	live := gen.DS1(gen.DS1Config{Events: 2000, Seed: 21, InterArrival: testIA})
	const bound = 10 * event.Microsecond
	for _, mode := range []Mode{ModeHybrid, ModeStateOnly, ModeInputOnly} {
		for _, lat := range []event.Time{bound * 5 / 4, 2 * bound, event.Millisecond} {
			newSide := func(async bool) (*Hybrid, *engine.Engine) {
				h := NewHybrid(model, Config{Bound: bound, Mode: mode, DelayEvents: 1000, AsyncPlan: async})
				en := engine.New(m, engine.DefaultCosts())
				h.Attach(en)
				feedAsync(h, en, live[:800], 0)
				return h, en
			}
			sh, sen := newSide(false)
			ah, aen := newSide(true)
			name := fmt.Sprintf("%s/lat=%v", sh.Name(), lat)

			sh.Control(sh.now, lat)
			// The async side snapshots chunk by chunk, builds off the
			// worker, applies on the next call and drops chunk by chunk.
			for i := 0; i == 0 || ah.snapping; i++ {
				if i == 1000 {
					t.Fatalf("%s: async snapshot did not complete", name)
				}
				ah.Control(ah.now, lat)
			}
			waitPlans(t, ah, 1)
			ah.Control(ah.now, lat)
			driveDrop(t, ah)

			if sh.CurrentSet() == nil {
				t.Fatalf("%s: no shedding set selected", name)
			}
			if !reflect.DeepEqual(sh.CurrentSet(), ah.CurrentSet()) {
				t.Fatalf("%s: shedding sets differ:\nsync  %+v\nasync %+v", name, sh.CurrentSet(), ah.CurrentSet())
			}
			if s, a := liveIDs(sen), liveIDs(aen); !reflect.DeepEqual(s, a) {
				t.Fatalf("%s: surviving partial matches differ: sync %d live, async %d live", name, len(s), len(a))
			}
			if mode != ModeInputOnly && sen.Stats().DroppedPMs == 0 {
				t.Fatalf("%s: the trigger dropped no partial matches", name)
			}
			shed := 0
			for _, e := range live[800:1400] {
				s, a := sh.AdmitEvent(e, e.Time), ah.AdmitEvent(e, e.Time)
				if s != a {
					t.Fatalf("%s: seq %d admitted=%v in-line, %v async", name, e.Seq, s, a)
				}
				if !s {
					shed++
				}
			}
			if mode != ModeStateOnly && shed == 0 {
				t.Fatalf("%s: the input filter shed no probe event", name)
			}
			if ps := sh.PlanStats(); ps.PlansBuilt != 1 || ps.PlansApplied != 1 || sh.ShedTriggers != 1 {
				t.Fatalf("%s: in-line trigger counted built=%d applied=%d triggers=%d, want 1 each",
					name, ps.PlansBuilt, ps.PlansApplied, sh.ShedTriggers)
			}
		}
	}
}

// liveIDs lists the ids of en's live partial matches in ascending order.
func liveIDs(en *engine.Engine) []uint64 {
	var ids []uint64
	for _, pm := range en.PartialMatches() {
		if pm.Alive() {
			ids = append(ids, pm.ID())
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
