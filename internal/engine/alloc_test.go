package engine

import (
	"testing"

	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// The steady-state no-branch path must be allocation-free: an event that
// extends no run (wrong type, or failing every predicate against the
// live matches) costs virtual work but no heap allocations.
func TestNoExtendProcessDoesNotAllocate(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	en := New(m, DefaultCosts())

	// Populate live state-0 runs (same timestamp throughout the test so
	// the expiry ring never pops).
	s := mkStream(
		event.New("A", event.Millisecond, attrsIV(1, 2)),
		event.New("A", event.Millisecond, attrsIV(2, 3)),
		event.New("A", event.Millisecond, attrsIV(3, 4)),
	)
	for _, e := range s {
		en.Process(e)
	}
	if en.LiveCount() != 3 {
		t.Fatalf("expected 3 live runs, got %d", en.LiveCount())
	}

	// An event of a type no query component mentions.
	irrelevant := event.New("X", event.Millisecond, nil)
	irrelevant.Seq = 100
	if allocs := testing.AllocsPerRun(100, func() { en.Process(irrelevant) }); allocs != 0 {
		t.Errorf("irrelevant event allocated %.1f times per Process", allocs)
	}

	// A reactive-type event that fails the bind predicates of every live
	// run (no matching ID): predicates evaluate, nothing branches.
	noBind := event.New("B", event.Millisecond, attrsIV(99, 1))
	noBind.Seq = 101
	if allocs := testing.AllocsPerRun(100, func() { en.Process(noBind) }); allocs != 0 {
		t.Errorf("no-extend event allocated %.1f times per Process", allocs)
	}
	if en.LiveCount() != 3 {
		t.Fatalf("no-extend processing changed live state: %d", en.LiveCount())
	}
}

// Both sides of the key index stay allocation-free for events that extend
// nothing: an event whose key differs (or is missing) prunes the keyed
// chain without evaluating anything, and an event that lacks an
// attribute an unkeyed match's predicate reads fails that predicate with
// a prebuilt error.
func TestKeyedAndUnkeyedNoExtendDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		q      *query.Query
		pruned bool
	}{
		{name: "keyed", q: query.Q1("8ms"), pruned: true},
		{name: "unkeyed", q: query.MustParse(`PATTERN SEQ(A a, B b, C c) WHERE a.V <= b.V AND a.V + b.V = c.V WITHIN 8ms`)},
	} {
		en := New(nfa.MustCompile(tc.q), DefaultCosts())
		for _, e := range mkStream(
			event.New("A", event.Millisecond, attrsIV(1, 2)),
			event.New("A", event.Millisecond, attrsIV(2, 3)),
			event.New("B", event.Millisecond, attrsIV(1, 2)),
		) {
			en.Process(e)
		}
		live := en.LiveCount()
		for _, e := range []*event.Event{
			event.New("B", event.Millisecond, nil), // no ID, no V
			event.New("C", event.Millisecond, nil),
			event.New("C", event.Millisecond, attrsIV(99, 99)),
		} {
			e.Seq = 100
			before := en.IndexStats()
			if allocs := testing.AllocsPerRun(100, func() { en.Process(e) }); allocs != 0 {
				t.Errorf("%s: %s allocated %.1f times per Process", tc.name, e, allocs)
			}
			after := en.IndexStats()
			if tc.pruned != (after.Pruned > before.Pruned) || tc.pruned == (after.Visited > before.Visited) {
				t.Errorf("%s: %s moved index stats %+v -> %+v", tc.name, e, before, after)
			}
		}
		if en.LiveCount() != live {
			t.Fatalf("%s: no-extend processing changed live state", tc.name)
		}
	}
}
