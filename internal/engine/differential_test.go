package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/vclock"
)

// This file is the satellite differential harness for the type- and
// key-indexed hot path: every scenario runs the same randomized stream
// through the indexed engine and the reference exhaustive-scan path
// (legacy_test.go), asserting event-by-event identical matches and virtual
// work, identical DropIf/DropClasses outcomes, and identical final stats
// (PredEvals included: the index charges what it skips) and
// partial-match state. keyindex_test.go adds the key-index scenarios.
// make check runs it under -race.

// bikeStream generates a Kleene-heavy random stream for HotPaths: trips
// of a few bikes between ten stations, loosely chained so multi-trip
// paths occur.
func bikeStream(rng *rand.Rand, n int) event.Stream {
	var b event.Builder
	lastEnd := map[int64]int64{}
	for i := 0; i < n; i++ {
		bike := int64(rng.Intn(4))
		start := lastEnd[bike]
		if start == 0 || rng.Intn(4) == 0 {
			start = int64(rng.Intn(10) + 1)
		}
		end := int64(rng.Intn(10) + 1)
		lastEnd[bike] = end
		b.Add(event.New("BikeTrip", event.Time(i)*40*event.Microsecond, map[string]event.Value{
			"bike":  event.Int(bike),
			"start": event.Int(start),
			"end":   event.Int(end),
		}))
	}
	return b.Finish()
}

// dropPM is the deterministic shedding predicate used by both engines.
// It keys on stable match identity (IDs are allocated in creation order,
// which the differential itself proves identical), so both engines shed
// the same runs.
func dropPM(pm *PartialMatch) bool {
	h := pm.ID()*2654435761 + pm.StartSeq()*97
	return h%7 == 0
}

func matchKeys(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	return out
}

// pmFingerprint renders the live partial-match set (contents, order, and
// witness flags) for comparison.
func pmFingerprint(en *Engine) []string {
	out := make([]string, 0, len(en.pms))
	for _, pm := range en.pms {
		out = append(out, fmt.Sprintf("%s w=%v", pm.String(), pm.IsWitness()))
	}
	return out
}

func runDifferential(t *testing.T, q *query.Query, deferred bool, s event.Stream, dropEvery int) {
	t.Helper()
	m := nfa.MustCompile(q)
	indexed := New(m, DefaultCosts())
	scan := New(m, DefaultCosts())
	indexed.DeferredNegation = deferred
	scan.DeferredNegation = deferred

	for i, e := range s {
		ri := indexed.Process(e)
		rs := scan.processScan(e)
		if ri.Work != rs.Work {
			t.Fatalf("event %d (%s): work diverged: indexed %d, scan %d", i, e, ri.Work, rs.Work)
		}
		ki, ks := matchKeys(ri.Matches), matchKeys(rs.Matches)
		if len(ki) != len(ks) {
			t.Fatalf("event %d (%s): match count diverged: indexed %v, scan %v", i, e, ki, ks)
		}
		for j := range ki {
			if ki[j] != ks[j] {
				t.Fatalf("event %d: match %d diverged: indexed %s, scan %s", i, j, ki[j], ks[j])
			}
		}
		if dropEvery > 0 && i%dropEvery == dropEvery-1 {
			// Alternate the two shedding entry points: the full-store DropIf
			// and the class-bucketed DropClasses (no OnCreate here, so every
			// match is in class 0 of its state).
			drop := func(en *Engine) (int, vclock.Cost) { return en.DropIf(dropPM) }
			if (i/dropEvery)%2 == 1 {
				pairs := make([][2]int, len(m.States))
				for st := range pairs {
					pairs[st] = [2]int{st, 0}
				}
				drop = func(en *Engine) (int, vclock.Cost) { return en.DropClasses(pairs, dropPM) }
			}
			ni, ci := drop(indexed)
			ns, cs := drop(scan)
			if ni != ns || ci != cs {
				t.Fatalf("event %d: drop diverged: indexed (%d, %d), scan (%d, %d)", i, ni, ci, ns, cs)
			}
			if err := checkIndex(indexed); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
		if indexed.LiveCount() != scan.LiveCount() {
			t.Fatalf("event %d: live count diverged: indexed %d, scan %d", i, indexed.LiveCount(), scan.LiveCount())
		}
	}

	if err := checkIndex(indexed); err != nil {
		t.Fatal(err)
	}
	fi, fs := pmFingerprint(indexed), pmFingerprint(scan)
	if len(fi) != len(fs) {
		t.Fatalf("final PM count diverged: indexed %d, scan %d", len(fi), len(fs))
	}
	for i := range fi {
		if fi[i] != fs[i] {
			t.Fatalf("final PM %d diverged:\nindexed: %s\nscan:    %s", i, fi[i], fs[i])
		}
	}
	if is, ss := indexed.Stats(), scan.Stats(); is != ss {
		t.Fatalf("stats diverged:\nindexed: %+v\nscan:    %+v", is, ss)
	}
	indexed.Flush()
	scan.Flush()
	if is, ss := indexed.Stats(), scan.Stats(); is != ss {
		t.Fatalf("post-flush stats diverged:\nindexed: %+v\nscan:    %+v", is, ss)
	}
}

func TestDifferentialIndexVsScan(t *testing.T) {
	type scenario struct {
		name      string
		q         *query.Query
		deferred  bool
		dropEvery int
	}
	scenarios := []scenario{
		{name: "sequence", q: query.Q1("2ms")},
		{name: "sequence-drop", q: query.Q1("2ms"), dropEvery: 13},
		{name: "sequence-count-window", q: query.MustParse(`
			PATTERN SEQ(A a, B b, C c)
			WHERE a.ID = b.ID AND a.ID = c.ID
			WITHIN 40 events`)},
		{name: "kleene", q: query.Q2("2ms", 1, 3)},
		{name: "kleene-drop", q: query.Q2("2ms", 2, 0), dropEvery: 17},
		{name: "negation-eager", q: query.Q4("2ms")},
		{name: "negation-eager-drop", q: query.Q4("2ms"), dropEvery: 11},
		{name: "negation-deferred", q: query.Q4("2ms"), deferred: true},
		{name: "negation-deferred-drop", q: query.Q4("2ms"), deferred: true, dropEvery: 9},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				s := gen.DS1(gen.DS1Config{
					Events:       1500,
					Seed:         seed,
					InterArrival: 30 * event.Microsecond,
				})
				runDifferential(t, sc.q, sc.deferred, s, sc.dropEvery)
			}
		})
	}
}

// TestDifferentialHotPaths covers unbounded trailing-Kleene emission
// (matches emitted from take reactions) on a chained-trip stream.
func TestDifferentialHotPaths(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := bikeStream(rng, 400)
		runDifferential(t, query.HotPaths("4ms", 2, 5), false, s, 0)
		rng = rand.New(rand.NewSource(seed + 100))
		runDifferential(t, query.HotPaths("4ms", 1, 0), false, bikeStream(rng, 300), 19)
	}
}
