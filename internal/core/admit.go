package core

import (
	"math"
	"sort"

	"cepshed/internal/event"
)

// This file compiles a shedding set into a flat admission table so the
// per-event input-shedding decision (ρI) is a handful of array lookups.
// The interpreted decision (the oracle in admit_test.go) re-derives the
// event's candidate classes from the decision trees on every event; the
// compiled form does that derivation once per shedding set instead: for
// each state whose type the event carries, the regions of every
// SURVIVING class (not in the set) are projected onto the state's
// own-attribute positions and laid out flat. An event is admitted iff some surviving class's projected
// region contains its attribute values — exactly the interpreted
// predicate, with the set membership tests and the per-event slice
// allocation compiled away.
//
// Tables are immutable once built and published by atomic pointer swap
// (Hybrid.table), which is what lets the async planner hand a new table
// to the worker without any locking on the admission path.

// AdmitTable is the compiled input-shedding filter for one shedding set.
// The pattern uses a handful of event types, so the per-type structures
// live in a parallel slice pair scanned linearly: comparing two or three
// type strings (usually pointer-equal literals) beats hashing the type
// on every event.
type AdmitTable struct {
	types []string
	tas   []*typeAdmit
}

func (t *AdmitTable) typeAdmitFor(typ string) *typeAdmit {
	for i, s := range t.types {
		if s == typ {
			return t.tas[i]
		}
	}
	return nil
}

// typeAdmit is the decision structure for one event type. A type absent
// from the table admits unconditionally (the pattern does not use it);
// always short-circuits types where some state is guaranteed to admit
// (an uncovered class whose regions cannot exclude any value).
type typeAdmit struct {
	always bool
	states []stateAdmit
}

// stateAdmit is one state's surviving-class regions, projected onto the
// state's own attributes and flattened: region r spans
// lo[r*dims:(r+1)*dims] / hi[r*dims:(r+1)*dims].
type stateAdmit struct {
	attrs  []string // aliased from the model's feature spec (immutable)
	dims   int
	lo, hi []float64
}

// CompileAdmitTable compiles the input filter a shedding set induces.
// It reads only immutable model structure (spec, trees, regions) and the
// set itself, so it is safe to run on the planner goroutine while the
// worker keeps processing.
func (model *Model) CompileAdmitTable(ss *SheddingSet) *AdmitTable {
	t := &AdmitTable{}
	for s := range model.machine.States {
		typ := model.machine.States[s].Comp.Type
		ta := t.typeAdmitFor(typ)
		if ta == nil {
			ta = &typeAdmit{}
			t.types = append(t.types, typ)
			t.tas = append(t.tas, ta)
		}
		if ta.always {
			continue
		}
		sm := model.states[s]
		if sm.tree == nil {
			// Untree'd states have the single class 0 as the only candidate:
			// if it survives, every event of the type admits here.
			if !ss.ContainsClass(s, 0) {
				ta.always = true
				ta.states = nil
			}
			continue
		}
		lo, hi := model.spec.ownStart[s], model.spec.ownEnd[s]
		dims := hi - lo
		sa := stateAdmit{attrs: model.spec.attrs[s], dims: dims}
		for c := 0; c < sm.k && !ta.always; c++ {
			if ss.ContainsClass(s, c) {
				continue
			}
			for _, r := range sm.regions[c] {
				if dims == 0 {
					// No own attributes: any region is compatible with any
					// event, so a surviving class with a region always admits.
					ta.always = true
					break
				}
				unbounded := true
				for d := lo; d < hi; d++ {
					sa.lo = append(sa.lo, r.Lo[d])
					sa.hi = append(sa.hi, r.Hi[d])
					if !math.IsInf(r.Lo[d], -1) || !math.IsInf(r.Hi[d], 1) {
						unbounded = false
					}
				}
				if unbounded {
					// The projection excludes nothing — admission is certain.
					ta.always = true
					break
				}
			}
		}
		if ta.always {
			ta.states = nil
			continue
		}
		if len(sa.lo) > 0 {
			if sa.dims == 1 {
				sa.mergeIntervals()
			}
			ta.states = append(ta.states, sa)
		}
		// A state with no surviving compatible regions never admits and is
		// simply not stored; if every state of the type ends up that way the
		// event is dropped, matching the interpreted fall-through.
	}
	return t
}

// mergeIntervals sorts a 1-D state's projected intervals by lower bound
// and coalesces overlapping ones, leaving a disjoint ascending list that
// Admit can binary-search instead of scanning region by region.
// Membership in the union of intervals is exactly preserved, so the
// admission decision stays bit-identical to the unsorted scan (the
// differential suite holds it to the interpreted path either way).
func (sa *stateAdmit) mergeIntervals() {
	n := len(sa.lo)
	if n < 2 {
		return
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sa.lo[order[a]] < sa.lo[order[b]] })
	lo := make([]float64, 0, n)
	hi := make([]float64, 0, n)
	for _, i := range order {
		if len(lo) > 0 && sa.lo[i] <= hi[len(hi)-1] {
			if sa.hi[i] > hi[len(hi)-1] {
				hi[len(hi)-1] = sa.hi[i]
			}
			continue
		}
		lo = append(lo, sa.lo[i])
		hi = append(hi, sa.hi[i])
	}
	sa.lo, sa.hi = lo, hi
}

// Admit is the compiled ρI decision: true admits the event. buf is a
// caller-owned scratch as long as the widest own-attribute span of any
// state (featureSpec.maxOwnDims) — with it, the decision
// performs zero heap allocations (pinned by TestAdmitEventZeroAlloc).
func (t *AdmitTable) Admit(e *event.Event, buf []float64) bool {
	ta := t.typeAdmitFor(e.Type)
	if ta == nil || ta.always {
		return true
	}
	for i := range ta.states {
		sa := &ta.states[i]
		if sa.dims == 1 {
			// Merged disjoint ascending intervals: binary-search the first
			// lower bound past v, then v is inside the union iff it sits in
			// the interval before it.
			v := numericAttr(e, sa.attrs[0])
			j := sort.SearchFloat64s(sa.lo, v)
			if j < len(sa.lo) && sa.lo[j] == v {
				return true
			}
			if j > 0 && v <= sa.hi[j-1] {
				return true
			}
			continue
		}
		own := buf[:sa.dims]
		for d, a := range sa.attrs {
			own[d] = numericAttr(e, a)
		}
	regions:
		for r := 0; r < len(sa.lo); r += sa.dims {
			for d := 0; d < sa.dims; d++ {
				if v := own[d]; v < sa.lo[r+d] || v > sa.hi[r+d] {
					continue regions
				}
			}
			return true
		}
	}
	return false
}
