package engine

import (
	"fmt"
	"strconv"
	"strings"

	"cepshed/internal/event"
	"cepshed/internal/nfa"
)

// PartialMatch is one run of the automaton: a partial binding of pattern
// components to events. Partial matches are the unit of state-based
// shedding.
type PartialMatch struct {
	id     uint64
	parent *PartialMatch // the match this one branched from (nil for runs)
	m      *nfa.Machine
	cur    int // highest state with a binding

	singles []*event.Event   // per state, non-Kleene bindings
	kleene  [][]*event.Event // per state, Kleene repetitions

	startTime event.Time
	startSeq  uint64

	// Class and Slice are cost-model annotations managed by the shedder
	// (negative while unclassified).
	Class int
	Slice int

	// witnessOf marks negation-witness state (deferred-negation mode): an
	// event of a negated type stored to invalidate completions. Witnesses
	// live in the engine's partial-match set and are shed-eligible — the
	// mechanism behind the paper's precision loss for non-monotonic
	// queries (§VI-H).
	witnessOf *nfa.Guard

	dead bool

	// Pool/slab lifecycle state (see docs/PERFORMANCE.md). gen is bumped
	// every time the object is recycled, so stale type-index and expiry-
	// ring entries referencing a reused object can be detected and
	// skipped. children counts live branches derived from this match (the
	// cost model walks Parent chains, so a parent may be reclaimed only
	// after all descendants are). pinned marks matches that escaped as
	// Match.Source and must never be recycled. pooled guards against
	// double-release.
	gen      uint32
	children int32
	pinned   bool
	pooled   bool

	// deferred marks a match parked on an in-flight by-reference
	// snapshot's deferred-release list (snapref.go): while a capture is
	// live no match is recycled — the background encoder may be reading
	// it — so tryRelease parks eligible matches here exactly once and
	// SnapshotRef.Release replays the parked releases.
	deferred bool

	// group is the expiry-ring start group this match belongs to.
	group *startGroup
}

// IsWitness reports whether this entry is a negation witness rather than
// a real partial match.
func (pm *PartialMatch) IsWitness() bool { return pm.witnessOf != nil }

// ID returns the unique identifier of the partial match.
func (pm *PartialMatch) ID() uint64 { return pm.id }

// Parent returns the partial match this one was derived from, or nil for
// a fresh run. The cost model walks parent chains to attribute
// contribution (Γ+) and consumption (Γ−) to ancestors.
func (pm *PartialMatch) Parent() *PartialMatch { return pm.parent }

// State returns the highest automaton state with a binding.
func (pm *PartialMatch) State() int { return pm.cur }

// StartTime returns the timestamp of the first bound event.
func (pm *PartialMatch) StartTime() event.Time { return pm.startTime }

// StartSeq returns the sequence number of the first bound event.
func (pm *PartialMatch) StartSeq() uint64 { return pm.startSeq }

// Len returns the number of bound events.
func (pm *PartialMatch) Len() int {
	n := 0
	for s := 0; s <= pm.cur && s < len(pm.singles); s++ {
		if pm.singles[s] != nil {
			n++
		}
		n += len(pm.kleene[s])
	}
	return n
}

// EventAt returns the event bound at a non-Kleene state (nil if none).
func (pm *PartialMatch) EventAt(state int) *event.Event {
	if state < 0 || state >= len(pm.singles) {
		return nil
	}
	return pm.singles[state]
}

// Reps returns the Kleene repetitions bound at a state.
func (pm *PartialMatch) Reps(state int) []*event.Event {
	if state < 0 || state >= len(pm.kleene) {
		return nil
	}
	return pm.kleene[state]
}

// LastEvent returns the most recently bound event.
func (pm *PartialMatch) LastEvent() *event.Event {
	if reps := pm.kleene[pm.cur]; len(reps) > 0 {
		return reps[len(reps)-1]
	}
	return pm.singles[pm.cur]
}

// Events returns all bound events in pattern order.
func (pm *PartialMatch) Events() []*event.Event {
	out := make([]*event.Event, 0, pm.Len())
	for s := 0; s <= pm.cur && s < len(pm.singles); s++ {
		if pm.singles[s] != nil {
			out = append(out, pm.singles[s])
		}
		out = append(out, pm.kleene[s]...)
	}
	return out
}

// Alive reports whether the partial match is still live in the engine.
func (pm *PartialMatch) Alive() bool { return !pm.dead }

func (pm *PartialMatch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pm#%d@state%d[", pm.id, pm.cur)
	for i, e := range pm.Events() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.Type)
		b.WriteByte('#')
		b.WriteString(strconv.FormatUint(e.Seq, 10))
	}
	b.WriteByte(']')
	return b.String()
}

// binding adapts a partial match (plus the candidate event under
// examination) to query.Binding. Positions are original pattern
// positions; states are positive-only indices. Methods use pointer
// receivers so the engine can pass a preallocated scratch binding
// through the query.Binding interface without a per-evaluation heap
// allocation.
type binding struct {
	pm      *PartialMatch
	current *event.Event
}

func (b *binding) Single(pos int) *event.Event {
	s := posToState(b.pm.m, pos)
	if s < 0 {
		return nil
	}
	return b.pm.singles[s]
}

func (b *binding) Kleene(pos int) []*event.Event {
	s := posToState(b.pm.m, pos)
	if s < 0 {
		return nil
	}
	return b.pm.kleene[s]
}

func (b *binding) Current() *event.Event { return b.current }

// posToState maps a pattern position to its automaton state via the
// table built at compile time (-1 for negated or unknown positions).
func posToState(m *nfa.Machine, pos int) int {
	if pos < 0 || pos >= len(m.PosState) {
		return -1
	}
	return m.PosState[pos]
}

// provisionalBinding is a binding where, additionally, the candidate
// event is provisionally visible as the binding of state s. Used to
// evaluate bind predicates before committing a branch.
type provisionalBinding struct {
	binding
	state int
	cand  *event.Event
}

func (b *provisionalBinding) Single(pos int) *event.Event {
	if s := posToState(b.pm.m, pos); s >= 0 && s == b.state {
		return b.cand
	}
	return b.binding.Single(pos)
}

func (b *provisionalBinding) Kleene(pos int) []*event.Event {
	if s := posToState(b.pm.m, pos); s >= 0 && s == b.state && !b.pm.m.States[s].Comp.Kleene {
		return nil
	}
	return b.binding.Kleene(pos)
}

// Match is a complete match.
type Match struct {
	// Events are the matched events in pattern order (Kleene repetitions
	// inlined).
	Events []*event.Event
	// Detected is the virtual arrival time of the completing event.
	Detected event.Time
	// Source is the registered partial match the completion was derived
	// from: the extended run for a final non-Kleene bind, or the emitting
	// run itself for a trailing-Kleene take. Nil for single-event matches.
	// Cost-model adaptation credits contribution to Source's class.
	Source *PartialMatch
}

// Key returns the canonical identity of the match: the sequence numbers
// of its events. Recall/precision compare matches by key.
func (m Match) Key() string {
	var b strings.Builder
	for i, e := range m.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(e.Seq, 10))
	}
	return b.String()
}
