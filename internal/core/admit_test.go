package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/knapsack"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// TestFNV1aMatchesStdlib pins the inlined string hash to hash/fnv bit
// for bit: trained trees split on hashed feature values, so the two
// implementations diverging would silently reclassify events.
func TestFNV1aMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []string{"", "a", "station-42", "\x00\xff", "日本語"}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := fnv1a32(s), h.Sum32(); got != want {
			t.Fatalf("fnv1a32(%q) = %d, stdlib %d", s, got, want)
		}
	}
}

// AdmitEventInterpreted is the reference ρI decision, re-deriving the
// event's candidate classes from the model per event: the oracle the
// differential suite checks the compiled admission table against. It
// must agree with AdmitEvent bit-for-bit; it does not update strategy
// state.
func (h *Hybrid) AdmitEventInterpreted(e *event.Event) bool {
	if !h.inputActive || h.current == nil {
		return true
	}
	matched := false
	for s := range h.model.machine.States {
		if h.model.machine.States[s].Comp.Type != e.Type {
			continue
		}
		matched = true
		for _, class := range h.model.EventCandidateClasses(s, e) {
			if !h.current.ContainsClass(s, class) {
				return true // some use of the event survives
			}
		}
	}
	return !matched
}

// EventCandidateClasses returns the classes a raw event COULD fall into
// as the newest event of a state-s partial match: the classes whose
// decision-tree regions, projected onto the event's own attribute
// positions, contain the event's values. Input-based shedding may discard
// an event only when every candidate class is in the shedding set — the
// event-level projection of the class predicates (§IV-C, §V-A).
func (model *Model) EventCandidateClasses(state int, e *event.Event) []int {
	sm := model.states[state]
	if sm.tree == nil {
		return []int{0}
	}
	own := model.spec.eventOwnFeaturesInto(state, e, nil)
	lo, hi := model.spec.ownStart[state], model.spec.ownEnd[state]
	var out []int
	for c := 0; c < sm.k; c++ {
		for _, r := range sm.regions[c] {
			if regionCompatible(r, lo, hi, own) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// stringifyIDs converts the ID attribute to a string value, forcing the
// admission path through the string-hash feature branch.
func stringifyIDs(s event.Stream) event.Stream {
	out := make(event.Stream, len(s))
	for i, e := range s {
		attrs := map[string]event.Value{}
		for k, v := range e.Attrs {
			if k == "ID" {
				attrs[k] = event.Str("id-" + strconv.FormatInt(v.I, 10))
			} else {
				attrs[k] = v
			}
		}
		ne := event.New(e.Type, e.Time, attrs)
		ne.Seq = e.Seq
		out[i] = ne
	}
	return out
}

// randomClassSet builds a shedding set with a random (state, class)
// cover — admission only reads Classes, so Cells can stay empty.
func randomClassSet(rng *rand.Rand, model *Model) *SheddingSet {
	ss := &SheddingSet{Cells: map[cellKey]bool{}, Classes: map[[2]int]bool{}}
	for s := range model.machine.States {
		k := model.NumClasses(s)
		if k == 0 {
			k = 1
		}
		for c := 0; c < k; c++ {
			if rng.Intn(2) == 0 {
				ss.Classes[[2]int{s, c}] = true
			}
		}
	}
	return ss
}

// TestAdmitCompiledMatchesInterpreted is the randomized differential for
// the compiled admission table: over trained models (numeric and
// string-featured), random shedding sets (both knapsack-selected and
// adversarially random), and crafted edge events, the compiled decision
// must equal the interpreted reference on every event.
func TestAdmitCompiledMatchesInterpreted(t *testing.T) {
	type variant struct {
		name    string
		q       *query.Query
		prep    func(event.Stream) event.Stream
		badAttr string
	}
	variants := []variant{
		{name: "numeric", q: query.Q1("8ms"), prep: func(s event.Stream) event.Stream { return s }},
		{name: "string-ids", q: query.MustParse(`
			PATTERN SEQ(A a, B b, C c)
			WHERE a.ID = b.ID AND a.ID = c.ID
			WITHIN 8ms`), prep: stringifyIDs},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				m := nfa.MustCompile(v.q)
				training := v.prep(gen.DS1(gen.DS1Config{Events: 3000, Seed: 11 + seed, InterArrival: testIA}))
				model, err := Train(m, training, TrainConfig{Slices: 4, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				h := NewHybrid(model, Config{Bound: event.Millisecond})
				en := engine.New(m, engine.DefaultCosts())
				h.Attach(en)
				live := v.prep(gen.DS1(gen.DS1Config{Events: 2000, Seed: 100 + seed, InterArrival: testIA}))
				for _, e := range live[:500] {
					en.Process(e)
				}
				rng := rand.New(rand.NewSource(seed * 31))
				probe := append(event.Stream{}, live[500:]...)
				// Edge events: unknown type, missing attributes.
				probe = append(probe,
					event.New("ZZZ", live[len(live)-1].Time, map[string]event.Value{"ID": event.Int(1)}),
					event.New("A", live[len(live)-1].Time, nil),
					event.New("B", live[len(live)-1].Time, map[string]event.Value{"other": event.Str("x")}),
				)
				for round := 0; round < 8; round++ {
					var ss *SheddingSet
					if round%2 == 0 {
						last := live[499]
						ss = model.SelectSheddingSet(en, last.Time, last.Seq,
							0.1+rng.Float64()*0.8, knapsack.Exact)
						if ss == nil {
							continue
						}
					} else {
						ss = randomClassSet(rng, model)
					}
					h.ImposeSet(ss)
					for i, e := range probe {
						got := h.AdmitEvent(e, e.Time)
						want := h.AdmitEventInterpreted(e)
						if got != want {
							t.Fatalf("round %d event %d (%s): compiled %v, interpreted %v (classes %v)",
								round, i, e.Type, got, want, ss.Classes)
						}
					}
				}
			}
		})
	}
}

// TestAdmitEventZeroAlloc pins the zero-allocation guarantee of the
// compiled per-event decision paths: Hybrid.AdmitEvent with an active
// set, and the fixed-ratio variant's event-utility scoring.
func TestAdmitEventZeroAlloc(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 1})
	h := NewHybrid(model, Config{Bound: event.Millisecond})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	live := gen.DS1(gen.DS1Config{Events: 1500, Seed: 9, InterArrival: testIA})
	for _, e := range live[:500] {
		en.Process(e)
	}
	last := live[499]
	ss := model.SelectSheddingSet(en, last.Time, last.Seq, 0.5, knapsack.Exact)
	if ss == nil {
		t.Fatal("no shedding set selected")
	}
	h.ImposeSet(ss)
	if !h.InputActive() {
		t.Fatal("input shedding not active")
	}
	probe := live[500:]
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		e := probe[i%len(probe)]
		i++
		h.AdmitEvent(e, e.Time)
	}); got != 0 {
		t.Errorf("Hybrid.AdmitEvent allocates %.1f per event, want 0", got)
	}

	fr := NewFixedRatioHybrid(model, 0.4, true, 3)
	fr.Attach(engine.New(m, engine.DefaultCosts()))
	i = 0
	if got := testing.AllocsPerRun(500, func() {
		e := probe[i%len(probe)]
		i++
		fr.eventUtility(e)
	}); got != 0 {
		t.Errorf("FixedRatioHybrid.eventUtility allocates %.1f per event, want 0", got)
	}
}

// TestSelectSheddingSetDeterministic pins the determinism fix: the same
// population must produce the same set regardless of partial-match
// iteration order (the old map-ordered item build could flip solver tie
// breaks between identical calls).
func TestSelectSheddingSetDeterministic(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 2})
	h := NewHybrid(model, Config{Bound: event.Millisecond})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	live := gen.DS1(gen.DS1Config{Events: 1200, Seed: 4, InterArrival: testIA})
	for _, e := range live {
		en.Process(e)
	}
	last := live[len(live)-1]
	pms := append([]*engine.PartialMatch{}, en.PartialMatches()...)
	rng := rand.New(rand.NewSource(5))
	var want string
	for trial := 0; trial < 6; trial++ {
		rng.Shuffle(len(pms), func(i, j int) { pms[i], pms[j] = pms[j], pms[i] })
		ss := selectFromPMs(model, pms, last.Time, last.Seq, 0.4, knapsack.Exact)
		if ss == nil {
			t.Fatal("no set selected")
		}
		got := fmt.Sprintf("%v", ss.ClassPairs()) + fmt.Sprintf(" cells=%d items=%d", len(ss.Cells), ss.Items)
		if trial == 0 {
			want = got
		} else if got != want {
			t.Fatalf("selection not deterministic:\ntrial 0: %s\ntrial %d: %s", want, trial, got)
		}
	}
}

// TestPlanCellSelectionMatchesPMSelection proves the planner's bucketed
// population snapshot feeds the knapsack exactly what the full
// partial-match walk does: identical sets, predictions, and item counts.
func TestPlanCellSelectionMatchesPMSelection(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 3})
	h := NewHybrid(model, Config{Bound: event.Millisecond})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	live := gen.DS1(gen.DS1Config{Events: 1500, Seed: 6, InterArrival: testIA})
	for i, e := range live {
		en.Process(e)
		if i%97 != 96 {
			continue
		}
		for _, violation := range []float64{0.15, 0.4, 0.6} {
			fromPMs := selectFromPMs(model, en.PartialMatches(), e.Time, e.Seq, violation, knapsack.Exact)
			cells := model.snapshotPlanCells(en, e.Time, e.Seq, nil)
			fromCells := selectFromPlanCells(cells, violation, knapsack.Exact)
			if (fromPMs == nil) != (fromCells == nil) {
				t.Fatalf("event %d v=%.2f: nil mismatch: pms=%v cells=%v", i, violation, fromPMs, fromCells)
			}
			if fromPMs == nil {
				continue
			}
			if len(fromPMs.Cells) != len(fromCells.Cells) || fromPMs.Items != fromCells.Items {
				t.Fatalf("event %d v=%.2f: shape diverged: pms %d cells/%d items, plan %d cells/%d items",
					i, violation, len(fromPMs.Cells), fromPMs.Items, len(fromCells.Cells), fromCells.Items)
			}
			for cell := range fromPMs.Cells {
				if !fromCells.Cells[cell] {
					t.Fatalf("event %d v=%.2f: cell %v selected from pms but not from plan cells", i, violation, cell)
				}
			}
			if dp, dc := fromPMs.PredictedSavings-fromCells.PredictedSavings, fromPMs.PredictedLoss-fromCells.PredictedLoss; dp > 1e-12 || dp < -1e-12 || dc > 1e-12 || dc < -1e-12 {
				t.Fatalf("event %d v=%.2f: predictions diverged: savings %v vs %v, loss %v vs %v",
					i, violation, fromPMs.PredictedSavings, fromCells.PredictedSavings,
					fromPMs.PredictedLoss, fromCells.PredictedLoss)
			}
		}
	}
}

// selectFromPMs is the selection oracle: it walks the live partial
// matches themselves into cost-model cells, computes per-cell relative
// contribution Δ+ and consumption Δ− (Eqs. 5 and 7), and solves the
// covering knapsack of Eq. 8. Cells are ordered by (state, class,
// slice) before the solve, so the selection is a deterministic function
// of the population. SelectSheddingSet reads the same populations from
// the engine's class buckets instead.
func selectFromPMs(model *Model,
	pms []*engine.PartialMatch,
	now event.Time, nowSeq uint64,
	violation float64,
	solver knapsack.Solver,
) *SheddingSet {
	if violation <= 0 || len(pms) == 0 {
		return nil
	}
	counts := map[cellKey]int{}
	for _, pm := range pms {
		class := pm.Class
		if class < 0 {
			class = 0
		}
		cell := cellKey{pm.State(), class, model.SliceOf(pm, now, nowSeq)}
		counts[cell]++
	}
	keys := make([]cellKey, 0, len(counts))
	for cell := range counts {
		keys = append(keys, cell)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.state != b.state {
			return a.state < b.state
		}
		if a.class != b.class {
			return a.class < b.class
		}
		return a.slice < b.slice
	})
	cells := make([]planCell, 0, len(keys))
	for _, cell := range keys {
		contrib, consume := model.Estimate(cell.state, cell.class, cell.slice)
		cells = append(cells, planCell{
			state: cell.state, class: cell.class, slice: cell.slice,
			count: counts[cell], contrib: contrib, consume: consume,
		})
	}
	return selectFromPlanCells(cells, violation, solver)
}
