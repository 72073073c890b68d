package engine

import (
	"errors"
	"fmt"

	"cepshed/internal/event"
)

// This file implements checkpoint support: Snapshot() captures the live
// partial-match store as a plain serializable value, and Restore() turns
// such a value back into the engine's internal representation — slab
// allocation, COW Kleene slices, parent refcounts, type-index buckets,
// and the start-ordered expiry ring included. The format deliberately
// contains no pointers: events are deduplicated into a table and every
// binding is an index into it, so a decoder (internal/checkpoint) can
// validate it without touching engine internals.
//
// Restore validates in a separate first pass and only then mutates the
// engine, so a corrupt or incompatible snapshot leaves the engine
// untouched and usable for a cold start — the property the runtime's
// crash-loop protection depends on.

// EngineState is the serializable image of a running engine. Events is a
// deduplicated table; PMState bindings reference it by index, preserving
// the sharing structure (two partial matches bound to the same event
// keep sharing it after a round trip).
type EngineState struct {
	DeferredNegation bool
	Stats            Stats
	NextID           uint64
	Events           []*event.Event
	PMs              []PMState // live entries, registration order (witnesses inline)
}

// PMState is one live partial match (or negation witness). Singles and
// Kleene are indexed per automaton state; -1 / empty mean "no binding".
type PMState struct {
	ID        uint64
	ParentID  uint64 // 0: no parent (live IDs start at 1)
	State     int
	StartTime event.Time
	StartSeq  uint64
	Class     int
	Slice     int
	// WitnessGuard is the guard index within States[State].Guards for a
	// negation witness, -1 for a real partial match.
	WitnessGuard int
	Singles      []int32   // per state, index into Events (-1 absent)
	Kleene       [][]int32 // per state, repetition indices into Events
}

// Snapshot captures the live partial-match store synchronously: the
// same CaptureSnapshot → Encode → Release a periodic background
// snapshot runs, in one call on the engine's goroutine. Precondition: no
// capture is in flight — a second capture would replay the first one's
// parked releases, so Snapshot panics instead. The returned state
// aliases the engine's events (events are immutable) but shares no
// other structure, so it stays valid across later Process calls.
func (en *Engine) Snapshot() *EngineState {
	ref := en.CaptureSnapshot()
	if ref == nil {
		panic("engine: Snapshot while a snapshot capture is in flight")
	}
	defer ref.Release()
	return ref.Encode()
}

// Restore rebuilds the partial-match store from a snapshot taken by an
// engine compiled from the same machine. It requires a fresh engine (no
// events processed) and validates the whole state before mutating
// anything: on error the engine is untouched and still usable cold.
// OnCreate is NOT invoked for restored matches and CreatedPMs is not
// re-incremented — the snapshot's Stats are adopted wholesale.
func (en *Engine) Restore(st *EngineState) error {
	if st == nil {
		return errors.New("engine: nil snapshot state")
	}
	if en.stats.Events != 0 || len(en.pms) != 0 || en.nextID != 0 {
		return errors.New("engine: Restore requires a fresh engine")
	}
	if st.DeferredNegation != en.DeferredNegation {
		return fmt.Errorf("engine: snapshot negation mode %v != engine %v",
			st.DeferredNegation, en.DeferredNegation)
	}
	n := len(en.m.States)
	nev := len(st.Events)
	for i := range st.Events {
		if st.Events[i] == nil {
			return fmt.Errorf("engine: snapshot event %d is nil", i)
		}
	}
	if err := en.validateState(st, n, nev); err != nil {
		return err
	}

	// Build pass: everything below is infallible. Expiry-ring groups must
	// be pushed in ascending stream order; groupFor only matches the back
	// group, so they are rebuilt wholesale here.
	type gkey struct {
		t   event.Time
		seq uint64
	}
	groups := make(map[gkey]*startGroup)
	var order []gkey
	for i := range st.PMs {
		k := gkey{st.PMs[i].StartTime, st.PMs[i].StartSeq}
		if _, ok := groups[k]; !ok {
			groups[k] = nil
			order = append(order, k)
		}
	}
	// Insertion sort by (seq, time): snapshot order is registration
	// order, which is already nearly sorted.
	less := func(a, b gkey) bool {
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.t < b.t
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, k := range order {
		g := en.newGroup()
		g.startTime, g.startSeq = k.t, k.seq
		en.ring.push(g)
		groups[k] = g
	}

	ids := make(map[uint64]*PartialMatch, len(st.PMs))
	maxID := uint64(0)
	for i := range st.PMs {
		p := &st.PMs[i]
		pm := en.alloc.get()
		pm.id = p.ID
		pm.m = en.m
		pm.cur = p.State
		pm.startTime = p.StartTime
		pm.startSeq = p.StartSeq
		pm.Class, pm.Slice = p.Class, p.Slice
		for s, ei := range p.Singles {
			if ei >= 0 {
				pm.singles[s] = st.Events[ei]
			}
		}
		for s, reps := range p.Kleene {
			if len(reps) == 0 {
				continue
			}
			// Exact-size, capacity-clamped slices re-establish the COW
			// invariant: any later branch append reallocates.
			out := make([]*event.Event, len(reps))
			for j, ei := range reps {
				out[j] = st.Events[ei]
			}
			pm.kleene[s] = out[:len(reps):len(reps)]
		}
		if p.WitnessGuard >= 0 {
			pm.witnessOf = &en.m.States[p.State].Guards[p.WitnessGuard]
		}
		if par := ids[p.ParentID]; par != nil {
			// Parents precede children in registration order; an ID that
			// resolves to nothing (parent died before the snapshot) leaves
			// the restored match an orphan, which only costs ancestor
			// credit attribution in the cost model.
			pm.parent = par
			par.children++
		}
		pm.group = groups[gkey{p.StartTime, p.StartSeq}]
		pm.group.members = append(pm.group.members, groupMember{pm: pm, gen: pm.gen})
		en.pms = append(en.pms, pm)
		en.live++
		if pm.witnessOf != nil {
			en.witnesses = append(en.witnesses, pm)
		} else {
			en.indexPM(pm)
		}
		en.classIndexPM(pm)
		ids[p.ID] = pm
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	en.stats = st.Stats
	en.nextID = st.NextID
	if maxID > en.nextID {
		en.nextID = maxID
	}
	// The restored population is a different one than any in-flight shed
	// plan was built for.
	en.dropEpoch++
	return nil
}

// validateState is Restore's first pass: every index in range, every
// structural invariant the build pass relies on checked up front.
func (en *Engine) validateState(st *EngineState, n, nev int) error {
	for i := range st.PMs {
		p := &st.PMs[i]
		if p.State < 0 || p.State >= n {
			return fmt.Errorf("engine: pm %d: state %d out of range", i, p.State)
		}
		if len(p.Singles) != n || len(p.Kleene) != n {
			return fmt.Errorf("engine: pm %d: binding arrays sized %d/%d, want %d",
				i, len(p.Singles), len(p.Kleene), n)
		}
		if p.ID == 0 || p.ID == p.ParentID {
			return fmt.Errorf("engine: pm %d: invalid id %d (parent %d)", i, p.ID, p.ParentID)
		}
		for s, ei := range p.Singles {
			if ei < -1 || int(ei) >= nev {
				return fmt.Errorf("engine: pm %d: single[%d] index %d out of range", i, s, ei)
			}
		}
		for s, reps := range p.Kleene {
			for _, ei := range reps {
				if ei < 0 || int(ei) >= nev {
					return fmt.Errorf("engine: pm %d: kleene[%d] index %d out of range", i, s, ei)
				}
			}
		}
		if p.WitnessGuard >= 0 {
			if !en.DeferredNegation {
				return fmt.Errorf("engine: pm %d: witness in eager-negation snapshot", i)
			}
			if p.WitnessGuard >= len(en.m.States[p.State].Guards) {
				return fmt.Errorf("engine: pm %d: witness guard %d out of range", i, p.WitnessGuard)
			}
			if p.Singles[p.State] < 0 {
				return fmt.Errorf("engine: pm %d: witness missing its event", i)
			}
			continue
		}
		if p.WitnessGuard < -1 {
			return fmt.Errorf("engine: pm %d: witness guard %d", i, p.WitnessGuard)
		}
		// A real partial match binds every state up to cur — exactly one of
		// single/kleene per state, matching the state's Kleene-ness — and
		// nothing beyond.
		for s := 0; s <= p.State; s++ {
			kleeneState := en.m.States[s].Comp.Kleene
			if kleeneState {
				if len(p.Kleene[s]) == 0 || p.Singles[s] >= 0 {
					return fmt.Errorf("engine: pm %d: bad kleene binding at state %d", i, s)
				}
			} else {
				if p.Singles[s] < 0 || len(p.Kleene[s]) > 0 {
					return fmt.Errorf("engine: pm %d: bad single binding at state %d", i, s)
				}
			}
		}
		for s := p.State + 1; s < n; s++ {
			if p.Singles[s] >= 0 || len(p.Kleene[s]) > 0 {
				return fmt.Errorf("engine: pm %d: binding beyond state %d", i, p.State)
			}
		}
	}
	return nil
}
