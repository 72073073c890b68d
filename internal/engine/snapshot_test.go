package engine

import (
	"math/rand"
	"testing"

	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// runSnapshotDifferential splits a stream at cut, runs the prefix, then
// snapshots, restores into a fresh engine, and feeds the suffix to both
// the original and the restored engine in lockstep. Everything
// observable — matches, virtual work, live counts, final PM store,
// stats — must be identical: a restored engine is indistinguishable
// from one that never stopped.
func runSnapshotDifferential(t *testing.T, q *query.Query, deferred, scan bool, s event.Stream, cut int) {
	t.Helper()
	m := nfa.MustCompile(q)
	mk := func() *Engine {
		en := New(m, DefaultCosts())
		en.DeferredNegation = deferred
		return en
	}
	// scan drives both engines through the reference exhaustive-scan path
	// (legacy_test.go) instead of the index.
	step := (*Engine).Process
	if scan {
		step = (*Engine).processScan
	}
	orig := mk()
	for _, e := range s[:cut] {
		step(orig, e)
	}

	st := orig.Snapshot()
	restored := mk()
	if err := restored.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := pmFingerprint(restored), pmFingerprint(orig); len(got) != len(want) {
		t.Fatalf("restored PM count %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("restored PM %d:\ngot  %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("restored stats %+v, want %+v", restored.Stats(), orig.Stats())
	}

	for i, e := range s[cut:] {
		ro := step(orig, e)
		rr := step(restored, e)
		if ro.Work != rr.Work {
			t.Fatalf("event %d: work diverged: orig %d, restored %d", i, ro.Work, rr.Work)
		}
		ko, kr := matchKeys(ro.Matches), matchKeys(rr.Matches)
		if len(ko) != len(kr) {
			t.Fatalf("event %d: match count diverged: orig %v, restored %v", i, ko, kr)
		}
		for j := range ko {
			if ko[j] != kr[j] {
				t.Fatalf("event %d: match %d diverged: orig %s, restored %s", i, j, ko[j], kr[j])
			}
		}
		if orig.LiveCount() != restored.LiveCount() {
			t.Fatalf("event %d: live count diverged: orig %d, restored %d",
				i, orig.LiveCount(), restored.LiveCount())
		}
	}
	if orig.Stats() != restored.Stats() {
		t.Fatalf("final stats diverged:\norig     %+v\nrestored %+v", orig.Stats(), restored.Stats())
	}
	fo, fr := pmFingerprint(orig), pmFingerprint(restored)
	if len(fo) != len(fr) {
		t.Fatalf("final PM count diverged: orig %d, restored %d", len(fo), len(fr))
	}
	for i := range fo {
		if fo[i] != fr[i] {
			t.Fatalf("final PM %d diverged:\norig     %s\nrestored %s", i, fo[i], fr[i])
		}
	}
}

func TestSnapshotRestoreDifferential(t *testing.T) {
	type scenario struct {
		name     string
		q        *query.Query
		deferred bool
	}
	scenarios := []scenario{
		{name: "sequence", q: query.Q1("2ms")},
		{name: "count-window", q: query.MustParse(`
			PATTERN SEQ(A a, B b, C c)
			WHERE a.ID = b.ID AND a.ID = c.ID
			WITHIN 40 events`)},
		{name: "kleene", q: query.Q2("2ms", 1, 3)},
		{name: "negation-eager", q: query.Q4("2ms")},
		{name: "negation-deferred", q: query.Q4("2ms"), deferred: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := gen.DS1(gen.DS1Config{
					Events:       900,
					Seed:         seed,
					InterArrival: 30 * event.Microsecond,
				})
				rng := rand.New(rand.NewSource(seed * 31))
				for _, cut := range []int{1, rng.Intn(len(s)-2) + 1, len(s) - 1} {
					runSnapshotDifferential(t, sc.q, sc.deferred, false, s, cut)
					runSnapshotDifferential(t, sc.q, sc.deferred, true, s, cut)
				}
			}
		})
	}
}

// TestSnapshotKleeneCOW proves a restored Kleene binding re-establishes
// copy-on-write: branching a restored run must not scribble over a
// sibling's shared repetition slice.
func TestSnapshotKleeneCOW(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := bikeStream(rng, 300)
	runSnapshotDifferential(t, query.HotPaths("4ms", 1, 0), false, false, s, 150)
}

func TestRestoreRejectsBadState(t *testing.T) {
	q := query.Q1("2ms")
	m := nfa.MustCompile(q)
	fresh := func() *Engine { return New(m, DefaultCosts()) }

	base := func() *EngineState {
		en := fresh()
		en.Process(event.New("A", event.Millisecond, attrsIV(1, 2)))
		return en.Snapshot()
	}

	cases := []struct {
		name string
		mut  func(st *EngineState)
	}{
		{"state-out-of-range", func(st *EngineState) { st.PMs[0].State = 99 }},
		{"negative-state", func(st *EngineState) { st.PMs[0].State = -1 }},
		{"zero-id", func(st *EngineState) { st.PMs[0].ID = 0 }},
		{"self-parent", func(st *EngineState) { st.PMs[0].ParentID = st.PMs[0].ID }},
		{"single-index-oob", func(st *EngineState) { st.PMs[0].Singles[0] = 99 }},
		{"missing-binding", func(st *EngineState) { st.PMs[0].Singles[0] = -1 }},
		{"short-singles", func(st *EngineState) { st.PMs[0].Singles = st.PMs[0].Singles[:1] }},
		{"witness-in-eager", func(st *EngineState) { st.PMs[0].WitnessGuard = 0 }},
		{"bad-witness-guard", func(st *EngineState) { st.PMs[0].WitnessGuard = -5 }},
		{"nil-event", func(st *EngineState) { st.Events[0] = nil }},
		{"kleene-index-oob", func(st *EngineState) {
			st.PMs[0].Kleene[0] = []int32{42}
			st.PMs[0].Singles[0] = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base()
			if len(st.PMs) == 0 {
				t.Fatal("expected a live PM in the base snapshot")
			}
			tc.mut(st)
			en := fresh()
			if err := en.Restore(st); err == nil {
				t.Fatal("Restore accepted corrupt state")
			}
			// The failed restore must leave the engine usable cold.
			if en.LiveCount() != 0 || en.Stats().Events != 0 {
				t.Fatalf("failed Restore mutated the engine: live=%d stats=%+v",
					en.LiveCount(), en.Stats())
			}
			en.Process(event.New("A", event.Millisecond, attrsIV(1, 2)))
			if en.LiveCount() == 0 {
				t.Fatal("engine unusable after rejected restore")
			}
		})
	}

	t.Run("non-fresh-engine", func(t *testing.T) {
		st := base()
		en := fresh()
		en.Process(event.New("A", event.Millisecond, attrsIV(1, 2)))
		if err := en.Restore(st); err == nil {
			t.Fatal("Restore accepted a non-fresh engine")
		}
	})
	t.Run("negation-mode-mismatch", func(t *testing.T) {
		st := base()
		en := fresh()
		en.DeferredNegation = true
		if err := en.Restore(st); err == nil {
			t.Fatal("Restore accepted a negation-mode mismatch")
		}
	})
}
