// Package nfa compiles an analyzed query into the automaton view the
// engine executes: one state per positive pattern component, with bind
// and incremental predicates attached to the state's edges and negation
// guards attached to the gaps between states (cf. Fig 2 of the paper).
package nfa

import (
	"fmt"

	"cepshed/internal/query"
)

// Machine is the compiled automaton for one query.
type Machine struct {
	// Query is the source query.
	Query *query.Query
	// States are the positive components in pattern order. A partial
	// match in "state s" has bound states 0..s-1 and waits to bind (or
	// extend) state s.
	States []State
	// Completion holds predicates checked when a full match is emitted.
	Completion []*query.Predicate
	// CompletionC is Completion compiled into closure chains.
	CompletionC []query.CompiledPredicate
	// PosState maps a pattern position (Component.Pos) to its automaton
	// state index, or -1 for negated components. It replaces the linear
	// position scan on every field-reference resolution in the hot path.
	PosState []int
}

// State is one automaton state.
type State struct {
	// Comp is the positive pattern component bound at this state.
	Comp *query.Component
	// Bind predicates run when this state binds an event (for Kleene
	// components: when the match proceeds past them, anchored here).
	Bind []*query.Predicate
	// Incremental predicates run on every Kleene take (empty for
	// non-Kleene components).
	Incremental []*query.Predicate
	// Guards are the negated components located between the previous
	// positive component and this one. A guard is active while a partial
	// match waits to bind this state; a guard-satisfying event kills the
	// match.
	Guards []Guard

	// BindC and IncrementalC are the compiled forms of Bind and
	// Incremental (built once at Compile time; the engine evaluates only
	// these).
	BindC        []query.CompiledPredicate
	IncrementalC []query.CompiledPredicate

	// EnterKey is the equi-join a match resting in the previous state is
	// indexed under for events of this state's type: the leading
	// predicate of the conjunction that binds the state (Bind, or
	// Incremental's first-repetition run for a Kleene state). TakeKey is
	// the same for a Kleene take from this state (Incremental). Nil means
	// the reaction is unkeyed: every event of the type visits the match.
	EnterKey *JoinKey
	TakeKey  *JoinKey
}

// JoinKey is the equi-join a reaction's predicate conjunction leads
// with, in the engine's terms: the arriving event's EventAttr must equal
// BoundAttr of the event selected by (State, Rep) in the partial match.
// Only the first predicate of a conjunction qualifies — it is the one
// every visit evaluates, so a match pruned on it is charged exactly one
// predicate evaluation, which is what the scan would have spent.
type JoinKey struct {
	EventAttr string
	State     int
	Rep       RepSel
	BoundAttr string
}

// RepSel selects the event a JoinKey reads at its state.
type RepSel uint8

const (
	// RepSingle is the binding of a non-Kleene state.
	RepSingle RepSel = iota
	// RepFirst is the first repetition of a Kleene state.
	RepFirst
	// RepLast is the latest repetition of a Kleene state.
	RepLast
)

// Guard is a negation guard.
type Guard struct {
	Comp  *query.Component
	Preds []*query.Predicate
	// PredsC is the compiled form of Preds.
	PredsC []query.CompiledPredicate
	// Key is the equi-join Preds leads with (nil: unkeyed), see
	// State.EnterKey.
	Key *JoinKey
}

// Compile builds the machine for q.
func Compile(q *query.Query) (*Machine, error) {
	m := &Machine{Query: q, Completion: q.CompletionPredicates()}
	m.CompletionC = query.CompilePredicates(m.Completion)
	m.PosState = make([]int, len(q.Pattern))
	var pending []Guard
	for i := range q.Pattern {
		c := &q.Pattern[i]
		if c.Negated {
			m.PosState[c.Pos] = -1
			preds := q.NegationPredicates(c.Pos)
			pending = append(pending, Guard{Comp: c, Preds: preds, PredsC: query.CompilePredicates(preds)})
			continue
		}
		bind, inc := q.PredicatesAt(c.Pos)
		m.PosState[c.Pos] = len(m.States)
		m.States = append(m.States, State{
			Comp:         c,
			Bind:         bind,
			Incremental:  inc,
			Guards:       pending,
			BindC:        query.CompilePredicates(bind),
			IncrementalC: query.CompilePredicates(inc),
		})
		pending = nil
	}
	if len(pending) > 0 {
		// analyze() rejects trailing negation, so this is unreachable for
		// parsed queries; guard against hand-built ones.
		return nil, fmt.Errorf("nfa: trailing negated component %s", pending[0].Comp.Var)
	}
	if len(m.States) == 0 {
		return nil, fmt.Errorf("nfa: no positive components")
	}
	m.assignJoinKeys()
	return m, nil
}

// assignJoinKeys derives every reaction's JoinKey from the leading
// predicate of its conjunction. The engine keeps one key index per event
// type and reads the key attribute off an arriving event once, so the
// first keyed reaction of a type (in state order) fixes the attribute
// for that type; reactions to the same type that join on another
// attribute stay unkeyed.
func (m *Machine) assignJoinKeys() {
	attrOf := map[string]string{}
	claim := func(typ string, k *JoinKey) *JoinKey {
		if k == nil {
			return nil
		}
		if a, ok := attrOf[typ]; ok && a != k.EventAttr {
			return nil
		}
		attrOf[typ] = k.EventAttr
		return k
	}
	for s := range m.States {
		st := &m.States[s]
		typ := st.Comp.Type
		for gi := range st.Guards {
			g := &st.Guards[gi]
			g.Key = claim(g.Comp.Type, m.leadingJoin(g.Preds))
		}
		if st.Comp.Kleene {
			st.TakeKey = claim(typ, m.leadingJoin(st.Incremental))
			// Entering binds the first repetition: a key that reads the
			// state's own (still empty) repetitions has no value yet.
			if k := st.TakeKey; s > 0 && k != nil && k.State != s {
				st.EnterKey = k
			}
		} else if s > 0 {
			st.EnterKey = claim(typ, m.leadingJoin(st.Bind))
		}
	}
}

// leadingJoin translates the first predicate of a conjunction into a
// JoinKey, or nil if it is not an equi-join.
func (m *Machine) leadingJoin(preds []*query.Predicate) *JoinKey {
	if len(preds) == 0 {
		return nil
	}
	ej, ok := preds[0].EquiJoin()
	if !ok {
		return nil
	}
	c := ej.Bound.Component()
	k := &JoinKey{EventAttr: ej.EventAttr, State: m.PosState[c.Pos], BoundAttr: ej.Bound.Attr}
	switch {
	case !c.Kleene:
		k.Rep = RepSingle
	case ej.Bound.Index == query.IdxFirst:
		k.Rep = RepFirst
	default:
		k.Rep = RepLast
	}
	return k
}

// MustCompile compiles and panics on error.
func MustCompile(q *query.Query) *Machine {
	m, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return m
}

// NumStates returns the number of automaton states.
func (m *Machine) NumStates() int { return len(m.States) }

// Final reports whether s is the last state.
func (m *Machine) Final(s int) bool { return s == len(m.States)-1 }

// IntermediateStates returns the state indices in which live partial
// matches can rest. A partial match "in state s" has bound state s as its
// highest component: states 0..n-2 always host live matches, and the
// final state n-1 does too when it is Kleene (repetitions accumulate
// there while matches keep being emitted). The cost model maintains one
// class set per intermediate state (§V-B: "one classifier per state").
func (m *Machine) IntermediateStates() []int {
	n := len(m.States)
	var out []int
	for s := 0; s < n-1; s++ {
		out = append(out, s)
	}
	if m.States[n-1].Comp.Kleene {
		out = append(out, n-1)
	}
	return out
}
