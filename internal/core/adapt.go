package core

import (
	"sync/atomic"

	"cepshed/internal/engine"
	"cepshed/internal/event"
)

// Adapter performs online adaptation of the cost model (§V-B): it tracks
// per-class creation counts and per-(class, slice) contribution and
// consumption credits and, at the end of each time-slice epoch, folds
// them into the estimates with
//
//	Γnew = (1−w)·Γold + w·Γincremented,   w = 0.5
//
// where the increment is the per-member credit rate of the class during
// the epoch. Credits walk the full ancestor chain of the originating
// partial match, mirroring the offline attribution of Eqs. 3 and 4, and
// land in the ancestor's CURRENT slice so the estimates keep describing
// remaining value. Classes that create members but earn no credits decay
// — that is how the model notices a distribution change (Fig 12).
//
// The counts are exact: the key domain is the model's own cell grid (a
// few hundred cells), so they live in flat arrays indexed by cell, and
// recording a credit neither formats, hashes nor allocates.
type Adapter struct {
	model *Model
	// W is the update weight (paper: 0.5).
	W float64

	// A (state, class) pair is row base[state]+class of state stateOf[row];
	// created holds one counter per row, contrib and consume one per
	// (row, slice) at row*slices+slice. born lists the rows whose created
	// counter left 0 this epoch, the only ones a fold updates. dirty is
	// set once any counter moved this epoch.
	base, stateOf             []int
	slices                    int
	created, contrib, consume []uint64
	born                      []int
	dirty                     bool

	// An epoch is epochLen of event time (time windows) or of sequence
	// numbers (count windows); nextFold is where the current one ends.
	byTime             bool
	epochLen, nextFold uint64
	// folds is read by stats threads (Hybrid.PlanStats) while the worker
	// folds.
	folds atomic.Uint64
}

// NewAdapter builds an adapter over a trained model.
func NewAdapter(model *Model) *Adapter {
	a := &Adapter{
		model:    model,
		W:        0.5,
		base:     make([]int, len(model.states)),
		slices:   model.cfg.Slices,
		byTime:   model.sliceLen > 0,
		epochLen: uint64(model.sliceEvents),
	}
	if a.byTime {
		a.epochLen = uint64(model.sliceLen)
	}
	rows := 0
	for s, sm := range model.states {
		a.base[s] = rows
		rows += sm.k
		for range sm.k {
			a.stateOf = append(a.stateOf, s)
		}
	}
	a.created = make([]uint64, rows)
	a.contrib = make([]uint64, rows*a.slices)
	a.consume = make([]uint64, rows*a.slices)
	return a
}

// countScale quantizes float increments into integer counts.
const countScale = 16

// row returns the counter row of a classified partial match, or -1 when
// its class is not one of the model's (unclassified, or restored from a
// snapshot taken under a differently trained model).
func (a *Adapter) row(pm *engine.PartialMatch) int {
	s := pm.State()
	if pm.Class < 0 || pm.Class >= a.model.states[s].k {
		return -1
	}
	return a.base[s] + pm.Class
}

// credit adds delta to the cell of every classified ancestor from pm
// upward, at the ancestor's current slice.
func (a *Adapter) credit(counts []uint64, pm *engine.PartialMatch, delta uint64, now event.Time, nowSeq uint64) {
	for anc := pm; anc != nil; anc = anc.Parent() {
		if r := a.row(anc); r >= 0 {
			counts[r*a.slices+a.model.SliceOf(anc, now, nowSeq)] += delta
			a.dirty = true
		}
	}
}

// OnCreate records a new partial match: its class's creation count rises,
// and its resource cost is credited to every ancestor's cell at the
// ancestor's current slice ("the counts for the class and time slice of
// the originating partial matches are incremented", §V-B).
func (a *Adapter) OnCreate(pm *engine.PartialMatch, now event.Time, nowSeq uint64) {
	if r := a.row(pm); r >= 0 {
		if a.created[r] == 0 {
			a.born = append(a.born, r)
		}
		a.created[r]++
		a.dirty = true
	}
	a.credit(a.consume, pm.Parent(), uint64(a.model.omega(pm)*countScale), now, nowSeq)
}

// OnMatch records a complete match: every ancestor of the source run
// gains contribution in its current slice.
func (a *Adapter) OnMatch(m engine.Match, now event.Time, nowSeq uint64) {
	a.credit(a.contrib, m.Source, countScale, now, nowSeq)
}

// MaybeFold folds accumulated counts into the model at slice-epoch
// boundaries and resets the counters. The first call only starts the
// first epoch.
func (a *Adapter) MaybeFold(now event.Time, nowSeq uint64) {
	pos := nowSeq
	if a.byTime {
		pos = uint64(now)
	}
	if pos < a.nextFold {
		return
	}
	started := a.nextFold != 0
	a.nextFold = pos + a.epochLen
	if started {
		a.fold()
	}
}

func (a *Adapter) fold() {
	a.folds.Add(1)
	if !a.dirty {
		return // nothing created or credited: every estimate stands
	}
	// A row that created nothing this epoch has no evidence and keeps
	// its estimates; cells are independent, so the born rows fold in
	// any order.
	for _, r := range a.born {
		state := a.stateOf[r]
		sm, class := a.model.states[state], r-a.base[state]
		created := float64(a.created[r])
		for slice := 0; slice < a.slices; slice++ {
			incContrib := float64(a.contrib[r*a.slices+slice]) / countScale / created
			incConsume := float64(a.consume[r*a.slices+slice]) / countScale / created
			oldC, oldW := sm.contrib[class][slice], sm.consume[class][slice]
			newC := (1-a.W)*oldC + a.W*incContrib
			newW := (1-a.W)*oldW + a.W*incConsume
			if !a.model.cfg.ResourceCosts {
				// Without explicit resource costs every match weighs
				// 1; adaptation only moves contribution.
				newW = oldW
			}
			a.model.setEstimate(state, class, slice, newC, newW)
		}
		a.created[r] = 0
	}
	a.born = a.born[:0]
	clear(a.contrib)
	clear(a.consume)
	a.dirty = false
}

// Folds returns how many epochs have been folded (observability).
func (a *Adapter) Folds() uint64 { return a.folds.Load() }
