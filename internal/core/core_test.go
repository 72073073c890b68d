package core

import (
	"testing"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/knapsack"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// testIA keeps the test streams light: a 40us mean gap holds ~200 events
// per 8ms window instead of ~800, cutting partial-match counts ~16x.
const testIA = 40 * event.Microsecond

func trainDS1(t *testing.T, cfg TrainConfig) (*nfa.Machine, *Model) {
	t.Helper()
	m := nfa.MustCompile(query.Q1("8ms"))
	training := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: testIA})
	model, err := Train(m, training, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, model
}

func TestTrainBuildsPerStateModels(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 1})
	// Q1 has three states; state 2 is final and sees only completing
	// branches (no live matches), but states 0 and 1 must have classes.
	if model.Slices() != 4 {
		t.Errorf("slices = %d", model.Slices())
	}
	for s := 0; s < 2; s++ {
		if model.NumClasses(s) < 1 {
			t.Errorf("state %d has %d classes", s, model.NumClasses(s))
		}
	}
}

func TestTrainFixedClusters(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{
		Slices:        3,
		FixedClusters: map[int]int{0: 4, 1: 5},
		Seed:          2,
	})
	if got := model.NumClasses(0); got != 4 {
		t.Errorf("state 0 classes = %d, want 4", got)
	}
	if got := model.NumClasses(1); got != 5 {
		t.Errorf("state 1 classes = %d, want 5", got)
	}
}

// TestTrainRejectsMoreThan64Slices pins the cap a plan's drop masks
// rely on: one uint64 holds every slice of a (state, class) pair.
func TestTrainRejectsMoreThan64Slices(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	training := gen.DS1(gen.DS1Config{Events: 500, Seed: 11, InterArrival: testIA})
	if _, err := Train(m, training, TrainConfig{Slices: 65, Seed: 1}); err == nil {
		t.Fatal("Train accepted 65 slices")
	}
	if _, err := Train(m, training, TrainConfig{Slices: 64, Seed: 1}); err != nil {
		t.Fatalf("Train refused 64 slices: %v", err)
	}
}

func TestTrainEmptyStreamFails(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	if _, err := Train(m, nil, TrainConfig{}); err == nil {
		t.Fatal("training on an empty stream must fail")
	}
}

func TestEstimatesAreFiniteAndPositiveWeight(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 3})
	for s := 0; s < 2; s++ {
		for c := 0; c < model.NumClasses(s); c++ {
			for sl := 0; sl < model.Slices(); sl++ {
				contrib, consume := model.Estimate(s, c, sl)
				if contrib < 0 {
					t.Errorf("contrib(%d,%d,%d) = %v", s, c, sl, contrib)
				}
				if consume <= 0 {
					t.Errorf("consume(%d,%d,%d) = %v must be positive", s, c, sl, consume)
				}
			}
		}
	}
}

func TestEstimateClamping(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 2, Seed: 4})
	// Out-of-range class and slice clamp instead of panicking.
	c1, w1 := model.Estimate(0, -5, -5)
	c2, w2 := model.Estimate(0, 999, 999)
	_ = c1
	_ = c2
	if w1 <= 0 || w2 <= 0 {
		t.Error("clamped estimates must stay positive")
	}
}

func TestClassFrequenciesSumToOne(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 5})
	for s := 0; s < 2; s++ {
		var sum float64
		for c := 0; c < model.NumClasses(s); c++ {
			sum += model.ClassFreq(s, c)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("state %d class frequencies sum to %v", s, sum)
		}
	}
	if model.ClassFreq(0, -1) != 0 || model.ClassFreq(0, 999) != 0 {
		t.Error("out-of-range class frequency must be 0")
	}
}

func TestClassifyConsistentWithEventCandidates(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 6})
	// Build a state-0 PM whose only event is a given A event; the PM's
	// predicted class must be among the event's candidate classes, since
	// state 0's features come entirely from that event.
	en := engine.New(m, engine.DefaultCosts())
	e := event.New("A", event.Microsecond, map[string]event.Value{
		"ID": event.Int(3), "V": event.Int(7),
	})
	e.Seq = 0
	en.Process(e)
	pms := en.PartialMatches()
	if len(pms) != 1 {
		t.Fatalf("pms = %d", len(pms))
	}
	got := model.Classify(pms[0])
	cands := model.EventCandidateClasses(0, e)
	found := false
	for _, c := range cands {
		if c == got {
			found = true
		}
	}
	if !found {
		t.Errorf("Classify = %d not among event candidates %v", got, cands)
	}
	// A worthless A event (V=10 can never satisfy a.V+b.V=c.V with
	// b.V>=1 and c.V<=10): every candidate class should have utility 0
	// in a well-trained model. We only assert candidates are non-empty.
	dead := event.New("A", event.Microsecond, map[string]event.Value{
		"ID": event.Int(3), "V": event.Int(10),
	})
	if len(model.EventCandidateClasses(0, dead)) == 0 {
		t.Error("candidate classes must never be empty for a matching type")
	}
}

func TestSliceOfProgressesWithAge(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 7})
	en := engine.New(m, engine.DefaultCosts())
	e := event.New("A", 0, map[string]event.Value{"ID": event.Int(1), "V": event.Int(1)})
	en.Process(e)
	pm := en.PartialMatches()[0]
	window := m.Query.Window.Duration
	if got := model.SliceOf(pm, 0, 0); got != 0 {
		t.Errorf("fresh slice = %d", got)
	}
	if got := model.SliceOf(pm, window/2, 0); got != 2 {
		t.Errorf("half-life slice = %d, want 2", got)
	}
	if got := model.SliceOf(pm, window*2, 0); got != 3 {
		t.Errorf("over-age slice = %d, want clamped 3", got)
	}
}

func TestOmegaModes(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	training := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: testIA})
	plain := MustTrain(m, training, TrainConfig{Seed: 1})
	rich := MustTrain(m, training, TrainConfig{Seed: 1, ResourceCosts: true})
	en := engine.New(m, engine.DefaultCosts())
	en.Process(event.New("A", 0, map[string]event.Value{"ID": event.Int(1), "V": event.Int(1)}))
	pm := en.PartialMatches()[0]
	if plain.Omega(pm) != 1 {
		t.Errorf("plain omega = %v", plain.Omega(pm))
	}
	if rich.Omega(pm) <= 1 {
		t.Errorf("resource-cost omega = %v should exceed 1", rich.Omega(pm))
	}
}

func TestSelectSheddingSetCoversViolation(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 8})
	// Populate an engine with live PMs from a fresh stream.
	en := engine.New(m, engine.DefaultCosts())
	en.OnCreate = func(pm *engine.PartialMatch) { pm.Class = model.Classify(pm) }
	s := gen.DS1(gen.DS1Config{Events: 800, Seed: 21, InterArrival: testIA})
	var last *event.Event
	for _, e := range s {
		en.Process(e)
		last = e
	}
	if len(en.PartialMatches()) == 0 {
		t.Fatal("no live PMs")
	}
	for _, solver := range []knapsack.Solver{knapsack.Exact, knapsack.Greedy} {
		ss := model.SelectSheddingSet(en, last.Time, last.Seq, 0.5, solver)
		if ss == nil {
			t.Fatal("nil shedding set")
		}
		if ss.PredictedSavings < 0.5-0.01 {
			t.Errorf("solver %v: savings %.3f < violation 0.5", solver, ss.PredictedSavings)
		}
		if len(ss.Cells) == 0 {
			t.Error("empty shedding set under violation")
		}
		// Set membership helpers agree with cell contents.
		for cell := range ss.Cells {
			if !ss.Contains(cell.state, cell.class, cell.slice) {
				t.Error("Contains disagrees with Cells")
			}
			if !ss.ContainsClass(cell.state, cell.class) {
				t.Error("ContainsClass disagrees with Cells")
			}
		}
	}
}

func TestSelectSheddingSetEdgeCases(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 9})
	if model.SelectSheddingSet(engine.New(m, engine.DefaultCosts()), 0, 0, 0.5, knapsack.Exact) != nil {
		t.Error("no PMs must yield nil set")
	}
	var none *SheddingSet
	if none.Contains(0, 0, 0) || none.ContainsClass(0, 0) {
		t.Error("nil set must contain nothing")
	}
}

func TestAdapterFoldsTowardObservedContribution(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 2, Seed: 10})
	adapter := NewAdapter(model)
	en := engine.New(m, engine.DefaultCosts())
	var now event.Time
	var nowSeq uint64
	en.OnCreate = func(pm *engine.PartialMatch) {
		pm.Class = model.Classify(pm)
		adapter.OnCreate(pm, now, nowSeq)
	}
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 22, InterArrival: testIA})
	for _, e := range s {
		now, nowSeq = e.Time, e.Seq
		res := en.Process(e)
		for _, match := range res.Matches {
			adapter.OnMatch(match, now, nowSeq)
		}
		adapter.MaybeFold(now, nowSeq)
	}
	if adapter.Folds() == 0 {
		t.Fatal("adapter never folded")
	}
}

func TestAdapterMovesEstimates(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 2, Seed: 12})
	adapter := NewAdapter(model)
	before, _ := model.Estimate(0, 0, 0)
	// Manually drive one epoch with heavy contribution on cell (0,0,0),
	// marking the row born the way OnCreate does.
	adapter.created[adapter.base[0]] = 10
	adapter.born = append(adapter.born, adapter.base[0])
	adapter.contrib[adapter.base[0]*adapter.slices] = 10 * countScale * 100 // 100 matches per PM
	adapter.dirty = true
	adapter.fold()
	after, _ := model.Estimate(0, 0, 0)
	if want := 0.5*before + 0.5*100; after != want {
		t.Errorf("estimate %v -> %v, want exactly %v", before, after, want)
	}
}

func TestHybridNameAndModes(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 13})
	if NewHybrid(model, Config{Bound: 1}).Name() != "Hybrid" {
		t.Error("hybrid name")
	}
	if NewHybrid(model, Config{Bound: 1, Mode: ModeStateOnly}).Name() != "HyS" {
		t.Error("HyS name")
	}
	if NewHybrid(model, Config{Bound: 1, Mode: ModeInputOnly}).Name() != "HyI" {
		t.Error("HyI name")
	}
	if NewFixedRatioHybrid(model, 0.5, true, 1).Name() != "HyI" {
		t.Error("fixed HyI name")
	}
	if NewFixedRatioHybrid(model, 0.5, false, 1).Name() != "HyS" {
		t.Error("fixed HyS name")
	}
}

func TestHybridShedsUnderViolation(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 14})
	h := NewHybrid(model, Config{Bound: 50 * event.Microsecond, DelayEvents: 50})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 23, InterArrival: testIA})
	shedEvents := 0
	for _, e := range s {
		if !h.AdmitEvent(e, e.Time) {
			shedEvents++
			continue
		}
		res := en.Process(e)
		h.Observe(&res, e.Time)
		// Report a permanently violated latency: 4x the bound.
		h.Control(e.Time, 200*event.Microsecond)
	}
	if h.ShedTriggers == 0 {
		t.Fatal("hybrid never triggered state shedding")
	}
	if en.Stats().DroppedPMs == 0 {
		t.Error("no PMs dropped despite sustained violation")
	}
	if !h.InputActive() {
		t.Error("input shedding should remain active under violation")
	}
	if shedEvents == 0 {
		t.Error("no events shed despite active input filter")
	}
	if h.CurrentSet() == nil {
		t.Error("no shedding set recorded")
	}
}

func TestHybridRespectsBound(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 15})
	h := NewHybrid(model, Config{Bound: 50 * event.Microsecond, DelayEvents: 10})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	s := gen.DS1(gen.DS1Config{Events: 1000, Seed: 24, InterArrival: testIA})
	for _, e := range s {
		h.AdmitEvent(e, e.Time)
		res := en.Process(e)
		h.Observe(&res, e.Time)
		h.Control(e.Time, 10*event.Microsecond) // always under the bound
	}
	if h.ShedTriggers != 0 {
		t.Error("shedding triggered while under the bound")
	}
	if en.Stats().DroppedPMs != 0 {
		t.Error("PMs dropped while under the bound")
	}
}

func TestHybridStateOnlyNeverFiltersInput(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 16})
	h := NewHybrid(model, Config{Bound: 1, Mode: ModeStateOnly, DelayEvents: 10})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	s := gen.DS1(gen.DS1Config{Events: 1500, Seed: 25, InterArrival: testIA})
	for _, e := range s {
		if !h.AdmitEvent(e, e.Time) {
			t.Fatal("HyS must admit every event")
		}
		res := en.Process(e)
		h.Observe(&res, e.Time)
		h.Control(e.Time, 100*event.Microsecond)
	}
	if h.ShedTriggers == 0 {
		t.Error("HyS never shed state")
	}
}

func TestHybridInputOnlyNeverDropsState(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 17})
	h := NewHybrid(model, Config{Bound: 1, Mode: ModeInputOnly, DelayEvents: 10})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	s := gen.DS1(gen.DS1Config{Events: 1500, Seed: 26, InterArrival: testIA})
	for _, e := range s {
		if !h.AdmitEvent(e, e.Time) {
			continue
		}
		res := en.Process(e)
		h.Observe(&res, e.Time)
		h.Control(e.Time, 100*event.Microsecond)
	}
	if en.Stats().DroppedPMs != 0 {
		t.Error("HyI dropped partial matches")
	}
	if h.ShedEventsCnt == 0 {
		t.Error("HyI shed no events under sustained violation")
	}
}

func TestFixedRatioHybridStateMode(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 18})
	f := NewFixedRatioHybrid(model, 0.4, false, 7)
	en := engine.New(m, engine.DefaultCosts())
	f.Attach(en)
	s := gen.DS1(gen.DS1Config{Events: 4000, Seed: 27, InterArrival: testIA})
	for _, e := range s {
		if !f.AdmitEvent(e, e.Time) {
			t.Fatal("state-mode fixed ratio must admit all events")
		}
		en.Process(e)
		f.Control(e.Time, 0)
	}
	st := en.Stats()
	got := float64(st.DroppedPMs) / float64(st.CreatedPMs)
	if got < 0.30 || got > 0.50 {
		t.Errorf("dropped/created = %.3f, want ~0.4", got)
	}
}

func TestFixedRatioHybridInputMode(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 19})
	f := NewFixedRatioHybrid(model, 0.3, true, 8)
	en := engine.New(m, engine.DefaultCosts())
	f.Attach(en)
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 28, InterArrival: testIA})
	shed := 0
	for _, e := range s {
		if !f.AdmitEvent(e, e.Time) {
			shed++
			continue
		}
		en.Process(e)
		if w := f.Control(e.Time, 0); w != 0 {
			t.Fatal("input-mode fixed ratio must not shed state")
		}
	}
	got := float64(shed) / float64(len(s))
	if got < 0.22 || got > 0.38 {
		t.Errorf("shed event ratio = %.3f, want ~0.3", got)
	}
}
