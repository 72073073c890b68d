// Package core implements the paper's primary contribution: the hybrid
// load-shedding approach. It contains the partial-match cost model
// (contribution Γ+ and consumption Γ−, §IV-A), its offline estimation via
// clustering and per-state decision-tree classifiers (§V-B), online
// adaptation backed by streaming counts (§V-B), knapsack-based shedding-
// set selection (§IV-B, §V-C), and the hybrid/input/state shedding
// strategies built on top (§IV-C).
package core

import (
	"slices"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/nfa"
)

// featureSpec fixes, per automaton state, the feature layout used by the
// classifiers: the predicate attributes of EVERY bound variable up to the
// state (§V-B: "the attributes of partial matches that appear in the
// query predicates as predictor variables"), the repetition count for
// Kleene states, and a witness indicator for queries with negation. The
// per-state layout also records which feature positions belong to the
// state's own variable — input-based shedding projects class regions onto
// exactly those positions to judge raw events (§IV-C).
type featureSpec struct {
	attrs  [][]string // per state: predicate attributes of its variable
	kleene []bool     // per state: repetition-count feature present
	// negation adds a witness-indicator feature so the classifier can
	// separate negation witnesses (zero contribution by construction)
	// from real partial matches in the same state.
	negation bool
	// dims[s] is the feature dimensionality of state s.
	dims []int
	// ownStart[s]/ownEnd[s] delimit the positions of state s's own
	// attributes within its feature vector.
	ownStart, ownEnd []int
}

// maxFeatureCardinality excludes near-unique attributes (task ids, bike
// ids, card numbers) from the classifier features: a class predicate over
// an identifier memorizes training noise and never generalizes to unseen
// identifiers. Attributes with more distinct training values than this
// are dropped from the feature spec.
const maxFeatureCardinality = 100

func newFeatureSpec(m *nfa.Machine, training event.Stream) *featureSpec {
	byVar := m.Query.PredicateAttrs()
	n := len(m.States)
	spec := &featureSpec{
		attrs:    make([][]string, n),
		kleene:   make([]bool, n),
		negation: m.Query.HasNegation(),
		dims:     make([]int, n),
		ownStart: make([]int, n),
		ownEnd:   make([]int, n),
	}
	highCard := highCardinalityAttrs(training)
	for s := 0; s < n; s++ {
		comp := m.States[s].Comp
		var attrs []string
		for _, a := range byVar[comp.Var] {
			if !highCard[typeAttr{comp.Type, a}] {
				attrs = append(attrs, a)
			}
		}
		spec.attrs[s] = attrs
		spec.kleene[s] = comp.Kleene
	}
	for s := 0; s < n; s++ {
		d := 0
		for t := 0; t <= s; t++ {
			if t == s {
				spec.ownStart[s] = d
			}
			d += len(spec.attrs[t])
			if t == s {
				spec.ownEnd[s] = d
			}
			if spec.kleene[t] {
				d++ // repetition count
			}
		}
		if spec.negation {
			d++
		}
		if d == 0 {
			d = 1
		}
		spec.dims[s] = d
	}
	return spec
}

// dim returns the feature dimensionality of state s.
func (fs *featureSpec) dim(s int) int { return fs.dims[s] }

type typeAttr struct{ typ, attr string }

// highCardinalityAttrs finds (event type, attribute) pairs whose distinct
// value count in the training stream exceeds maxFeatureCardinality.
func highCardinalityAttrs(training event.Stream) map[typeAttr]bool {
	seen := map[typeAttr]map[event.Value]bool{}
	out := map[typeAttr]bool{}
	for _, e := range training {
		for a, v := range e.Attrs {
			key := typeAttr{e.Type, a}
			if out[key] {
				continue
			}
			vals := seen[key]
			if vals == nil {
				vals = map[event.Value]bool{}
				seen[key] = vals
			}
			vals[v] = true
			if len(vals) > maxFeatureCardinality {
				out[key] = true
				delete(seen, key)
			}
		}
	}
	return out
}

// pmFeatures extracts the feature vector of a partial match in state s:
// the predicate attributes of the last bound event of every bound state,
// Kleene repetition counts, and the witness flag.
func (fs *featureSpec) pmFeatures(pm *engine.PartialMatch) []float64 {
	return fs.pmFeaturesInto(pm, make([]float64, 0, fs.dims[pm.State()]))
}

// pmFeaturesInto is pmFeatures writing into a caller-owned buffer of
// capacity maxDims — the per-partial-match classification hook reuses
// one scratch buffer so creating a match never heap-allocates here.
func (fs *featureSpec) pmFeaturesInto(pm *engine.PartialMatch, out []float64) []float64 {
	s := pm.State()
	out = out[:0]
	for t := 0; t <= s; t++ {
		var ev *event.Event
		if reps := pm.Reps(t); len(reps) > 0 {
			ev = reps[len(reps)-1]
		} else {
			ev = pm.EventAt(t)
		}
		for _, a := range fs.attrs[t] {
			if ev == nil {
				out = append(out, -1)
			} else {
				out = append(out, numericAttr(ev, a))
			}
		}
		if fs.kleene[t] {
			out = append(out, float64(len(pm.Reps(t))))
		}
	}
	if fs.negation {
		if pm.IsWitness() {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// eventOwnFeaturesInto extracts the values an event would contribute to
// the own-attribute positions of a state-s feature vector into a
// caller-owned buffer — the per-event shed-decision paths reuse one
// scratch buffer so admission never heap-allocates.
func (fs *featureSpec) eventOwnFeaturesInto(s int, e *event.Event, buf []float64) []float64 {
	buf = buf[:0]
	for _, a := range fs.attrs[s] {
		buf = append(buf, numericAttr(e, a))
	}
	return buf
}

// maxDims returns the widest feature vector across states — the scratch-
// buffer capacity a classification can need.
func (fs *featureSpec) maxDims() int { return slices.Max(fs.dims) }

// maxOwnDims returns the widest own-attribute span across states — the
// scratch-buffer capacity an admission decision can need.
func (fs *featureSpec) maxOwnDims() int {
	max := 1
	for s := range fs.attrs {
		if n := len(fs.attrs[s]); n > max {
			max = n
		}
	}
	return max
}

// numericAttr coerces an attribute to a float feature. String attributes
// hash to a stable small bucket so trees can split on them.
func numericAttr(e *event.Event, attr string) float64 {
	v, ok := e.Get(attr)
	if !ok {
		return -1
	}
	if v.IsNumeric() {
		return v.AsFloat()
	}
	return float64(fnv1a32(v.S) % 1024)
}

// fnv1a32 is 32-bit FNV-1a, bit-identical to hash/fnv's New32a but
// allocation-free: fnv.New32a heap-allocates its hash state, which would
// put one allocation per string attribute on the per-event admission
// path. Trained trees split on these hashed values, so the constants
// must never change.
func fnv1a32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
