package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cepshed/internal/citibike"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// exactAdapter is the differential oracle for the Adapter's dense
// tables: the same §V-B estimator over plain maps keyed by cell, folding
// into its own clone of the model.
type exactAdapter struct {
	model            *Model
	created          map[[2]int]uint64
	contrib, consume map[cellKey]uint64
}

func newExactAdapter(model *Model) *exactAdapter {
	return &exactAdapter{model, map[[2]int]uint64{}, map[cellKey]uint64{}, map[cellKey]uint64{}}
}

func (o *exactAdapter) credit(counts map[cellKey]uint64, pm *engine.PartialMatch, delta uint64, now event.Time, nowSeq uint64) {
	for anc := pm; anc != nil; anc = anc.Parent() {
		if anc.Class >= 0 {
			counts[cellKey{anc.State(), anc.Class, o.model.SliceOf(anc, now, nowSeq)}] += delta
		}
	}
}

func (o *exactAdapter) onCreate(pm *engine.PartialMatch, now event.Time, nowSeq uint64) {
	if pm.Class >= 0 {
		o.created[[2]int{pm.State(), pm.Class}]++
	}
	o.credit(o.consume, pm.Parent(), uint64(o.model.omega(pm)*countScale), now, nowSeq)
}

func (o *exactAdapter) fold() {
	for rc, created := range o.created {
		for sl := 0; sl < o.model.cfg.Slices; sl++ {
			cell := cellKey{rc[0], rc[1], sl}
			oldC, oldW := o.model.Estimate(rc[0], rc[1], sl)
			newC := 0.5*oldC + 0.5*(float64(o.contrib[cell])/countScale/float64(created))
			newW := 0.5*oldW + 0.5*(float64(o.consume[cell])/countScale/float64(created))
			if !o.model.cfg.ResourceCosts {
				newW = oldW
			}
			o.model.setEstimate(rc[0], rc[1], sl, newC, newW)
		}
	}
	o.created, o.contrib, o.consume = map[[2]int]uint64{}, map[cellKey]uint64{}, map[cellKey]uint64{}
}

// requireSameEstimates fails unless every cell of both models holds
// bit-identical estimates.
func requireSameEstimates(t *testing.T, got, want *Model, when string) {
	t.Helper()
	for s := range want.states {
		for c := 0; c < want.NumClasses(s); c++ {
			for sl := 0; sl < want.Slices(); sl++ {
				gc, gw := got.Estimate(s, c, sl)
				wc, ww := want.Estimate(s, c, sl)
				if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gw) != math.Float64bits(ww) {
					t.Fatalf("%s: cell (%d,%d,%d) = (%v,%v), oracle (%v,%v)", when, s, c, sl, gc, gw, wc, ww)
				}
			}
		}
	}
}

func citibikeStream(trips int, seed int64) event.Stream {
	return citibike.Generate(citibike.Config{Trips: trips, Seed: seed})
}

func ds1Stream(events int, seed int64) event.Stream {
	return gen.DS1(gen.DS1Config{Events: events, Seed: seed, InterArrival: testIA})
}

// TestAdapterMatchesExactOracle drives the dense-table Adapter and the
// map-keyed oracle with the same OnCreate/OnMatch/MaybeFold calls over
// randomized streams and requires bit-identical estimates after every
// fold.
func TestAdapterMatchesExactOracle(t *testing.T) {
	const q1Count = `PATTERN SEQ(A a, B b, C c)
		WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V WITHIN 200 EVENTS`
	const hotCount = `PATTERN SEQ(BikeTrip+ a[]{2,4}, BikeTrip b)
		WHERE a[i+1].bike = a[i].bike AND a[i+1].start = a[i].end
		AND a[last].bike = b.bike AND b.end IN (7, 8, 9) WITHIN 120 EVENTS`
	cases := []struct {
		name   string
		q      *query.Query
		stream func(n int, seed int64) event.Stream
		n      int
	}{
		{"ds1-q1-time", query.Q1("2ms"), ds1Stream, 2500},
		{"ds1-q1-count", query.MustParse(q1Count), ds1Stream, 2500},
		{"citibike-hotpaths-time", query.HotPaths("5 min", 2, 4), citibikeStream, 1500},
		{"citibike-hotpaths-count", query.MustParse(hotCount), citibikeStream, 1500},
	}
	rng := rand.New(rand.NewSource(12))
	for _, tc := range cases {
		for _, costs := range []bool{false, true} {
			name := tc.name
			if costs {
				name += "-omega"
			}
			trainSeed, liveSeed := rng.Int63n(1000), 1000+rng.Int63n(1000)
			t.Run(name, func(t *testing.T) {
				m := nfa.MustCompile(tc.q)
				model, err := Train(m, tc.stream(tc.n, trainSeed), TrainConfig{Slices: 4, Seed: 1, ResourceCosts: costs})
				if err != nil {
					t.Fatal(err)
				}
				pristine := model.Clone()
				a, o := NewAdapter(model), newExactAdapter(model.Clone())
				en := engine.New(m, engine.DefaultCosts())
				var now event.Time
				var nowSeq uint64
				en.OnCreate = func(pm *engine.PartialMatch) {
					pm.Class = model.Classify(pm)
					a.OnCreate(pm, now, nowSeq)
					o.onCreate(pm, now, nowSeq)
				}
				for _, e := range tc.stream(tc.n, liveSeed) {
					now, nowSeq = e.Time, e.Seq
					res := en.Process(e)
					for _, match := range res.Matches {
						a.OnMatch(match, now, nowSeq)
						o.credit(o.contrib, match.Source, countScale, now, nowSeq)
					}
					before := a.Folds()
					a.MaybeFold(now, nowSeq)
					if a.Folds() != before {
						o.fold()
						requireSameEstimates(t, model, o.model, "after fold")
					}
				}
				if a.Folds() < 4 {
					t.Fatalf("only %d folds; the stream does not exercise adaptation", a.Folds())
				}
				moved := false
				for s := range model.states {
					for c := 0; c < model.NumClasses(s); c++ {
						gc, _ := model.Estimate(s, c, 0)
						pc, _ := pristine.Estimate(s, c, 0)
						moved = moved || gc != pc
					}
				}
				if !moved {
					t.Fatal("no estimate moved; the oracle comparison is vacuous")
				}
			})
		}
	}
}

// TestAdapterEmptyEpoch: an epoch that created and credited nothing
// leaves every estimate untouched and still counts as a fold.
func TestAdapterEmptyEpoch(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 12})
	pristine := model.Clone()
	a := NewAdapter(model)
	a.MaybeFold(event.Millisecond, 0) // arms the first epoch
	for i := 2; i < 12; i++ {
		a.MaybeFold(event.Time(i)*8*event.Millisecond, 0)
	}
	if a.Folds() != 10 {
		t.Fatalf("folds = %d, want 10", a.Folds())
	}
	requireSameEstimates(t, model, pristine, "after empty epochs")
}

// runAdaptingHybrid feeds a stream through a Hybrid with online
// adaptation under a synthetic latency that follows the live partial-
// match count, and returns every shed decision it took plus the final
// strategy state.
func runAdaptingHybrid(t *testing.T, m *nfa.Machine, model *Model, s event.Stream) (decisions []uint64, state []byte) {
	t.Helper()
	h := NewHybrid(model, Config{Bound: 100 * event.Microsecond, DelayEvents: 50, Adapt: true})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	for _, e := range s {
		if !h.AdmitEvent(e, e.Time) {
			decisions = append(decisions, e.Seq)
			continue
		}
		res := en.Process(e)
		h.Observe(&res, e.Time)
		h.Control(e.Time, event.Time(en.LiveCount())*event.Microsecond)
		decisions = append(decisions, h.ShedTriggers, en.Stats().DroppedPMs)
	}
	if h.ShedTriggers == 0 || h.ShedEventsCnt == 0 || en.Stats().DroppedPMs == 0 {
		t.Fatalf("run never shed (triggers %d, events %d, PMs %d)", h.ShedTriggers, h.ShedEventsCnt, en.Stats().DroppedPMs)
	}
	if h.adapter.Folds() == 0 {
		t.Fatal("run never folded")
	}
	state, err := h.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return decisions, state
}

// TestHybridAdaptationDeterministic: with exact counters (no per-process
// hash seeds) two Hybrids over the same stream adapt to byte-identical
// state and take identical shed decisions.
func TestHybridAdaptationDeterministic(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 17})
	s := ds1Stream(4000, 31)
	d1, s1 := runAdaptingHybrid(t, m, model.Clone(), s)
	d2, s2 := runAdaptingHybrid(t, m, model.Clone(), s)
	if !bytes.Equal(s1, s2) {
		t.Error("MarshalState differs between two runs over the same stream")
	}
	if len(d1) != len(d2) {
		t.Fatalf("decision traces differ in length: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("shed decisions diverge at step %d: %d vs %d", i, d1[i], d2[i])
		}
	}
	pristine, _ := NewHybrid(model, Config{Bound: 1}).MarshalState()
	if bytes.Equal(s1, pristine) {
		t.Error("adaptation left the state untouched; the comparison is vacuous")
	}
}

// TestModelClone: clones start equal to the original and adapt
// independently of it and of each other.
func TestModelClone(t *testing.T) {
	_, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 18})
	a, b := model.Clone(), model.Clone()
	orig, _ := NewHybrid(model, Config{Bound: 1}).MarshalState()
	fresh, _ := NewHybrid(a, Config{Bound: 1}).MarshalState()
	if !bytes.Equal(orig, fresh) {
		t.Fatal("MarshalState of a fresh clone differs from the original's")
	}
	for s := range a.states {
		for c := 0; c < a.NumClasses(s); c++ {
			for sl := 0; sl < a.Slices(); sl++ {
				a.setEstimate(s, c, sl, 1e6+float64(sl), 1e3)
			}
		}
	}
	requireSameEstimates(t, b, model, "sibling clone after adapting the other")
	if got, _ := NewHybrid(model, Config{Bound: 1}).MarshalState(); !bytes.Equal(orig, got) {
		t.Fatal("adapting a clone changed the original")
	}
}

// TestHybridAdaptZeroExtraAlloc pins the index-add bookkeeping and the
// scratch-buffer classification: Engine.Process with an adapting Hybrid
// attached allocates exactly what the engine alone does on the same
// events. The bare engine gets an OnCreate that replays the recorded
// classes, so both sides keep the same class buckets and both run with
// partial-match recycling off.
func TestHybridAdaptZeroExtraAlloc(t *testing.T) {
	m, model := trainDS1(t, TrainConfig{Slices: 4, Seed: 19, ResourceCosts: true})
	s := ds1Stream(3000, 41)
	half := len(s) / 2

	var classes []int // in creation order
	rec := engine.New(m, engine.DefaultCosts())
	rec.OnCreate = func(pm *engine.PartialMatch) {
		classes = append(classes, model.Classify(pm))
	}
	for _, e := range s {
		rec.Process(e)
	}

	// halves returns a closure feeding one half of the stream per call:
	// AllocsPerRun's warm-up call takes the first half (slices grow to
	// their working size), the measured call the second.
	halves := func(step func(*event.Event)) func() {
		next := 0
		return func() {
			for _, e := range s[next : next+half] {
				step(e)
			}
			next += half
		}
	}

	// AllocsPerRun reads a process-wide malloc counter, so anything else
	// allocating in the test binary (parallel tests, the GC's own workers)
	// inflates a sample. Interference only ever adds: the minimum of three
	// fresh measurements per side estimates the undisturbed count.
	minOf3 := func(measure func() float64) float64 {
		best := measure()
		for i := 0; i < 2; i++ {
			best = min(best, measure())
		}
		return best
	}
	want := minOf3(func() float64 {
		bare := engine.New(m, engine.DefaultCosts())
		created := 0
		bare.OnCreate = func(pm *engine.PartialMatch) {
			pm.Class = classes[created]
			created++
		}
		return testing.AllocsPerRun(1, halves(func(e *event.Event) { bare.Process(e) }))
	})
	got := minOf3(func() float64 {
		h := NewHybrid(model.Clone(), Config{Bound: event.Second, Adapt: true})
		en := engine.New(m, engine.DefaultCosts())
		h.Attach(en)
		allocs := testing.AllocsPerRun(1, halves(func(e *event.Event) {
			h.AdmitEvent(e, e.Time)
			res := en.Process(e)
			h.Observe(&res, e.Time)
			h.Control(e.Time, 0)
		}))
		if h.adapter.Folds() == 0 {
			t.Fatal("adapter never folded during the measured run")
		}
		return allocs
	})
	if want == 0 {
		t.Fatal("bare engine allocated nothing; the stream creates no partial matches")
	}
	if got != want {
		t.Errorf("Process with adapting Hybrid allocates %.0f over %d events, bare engine %.0f", got, half, want)
	}
}
