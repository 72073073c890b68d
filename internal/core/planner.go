package core

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/shed"
	"cepshed/internal/vclock"
)

// This file is the shedding trigger: snapshot the per-cell populations
// off the class buckets, build a plan (covering knapsack plus compiled
// admission table), apply it (a bucketed state drop plus an atomic table
// swap). Config.AsyncPlan decides only where the steps run. Without it
// each step runs whole inside the Control call that triggered, so the
// shed takes effect on the triggering event. With it the snapshot and
// the drop advance one bounded chunk per Control call and the build runs
// on a planner goroutine, so the worker's share of a trigger stays small
// exactly when the worker is CPU-starved.
//
// Thread-safety inventory: the build receives value-typed plan cells
// (population counts plus estimate snapshots), so it never reads the
// model's online-adapted estimates (the worker's Adapter mutates those);
// CompileAdmitTable reads only model structure that is immutable after
// Train. Plans are fenced by the engine's drop epoch: a plan built for a
// population that has since been dropped, flushed, or restored is
// discarded as stale rather than applied.

// shedPlan is one finished planner product, ready to apply.
type shedPlan struct {
	set   *SheddingSet
	pairs [][2]int    // set.ClassPairs(), precomputed by the build
	table *AdmitTable // nil in state-only mode
	epoch uint64      // en.DropEpoch() when the population was snapshot
	en    *engine.Engine

	// Drop state, precomputed by the build so the per-member predicate
	// on the worker is mask arithmetic instead of a map probe:
	// masks[state*classDim+class] has bit s set iff cell (state, class,
	// slice s) is in the set (Train caps Slices at 64). cursor is the
	// worker's resume position in the bounded bucket walk.
	masks    []uint64
	classDim int
	cursor   engine.DropCursor
}

// buildDropMasks precomputes the per-(state, class) covered-slice
// bitmasks.
func buildDropMasks(ss *SheddingSet) (masks []uint64, classDim int) {
	maxState, maxClass := 0, 0
	for cell := range ss.Cells {
		if cell.state > maxState {
			maxState = cell.state
		}
		if cell.class > maxClass {
			maxClass = cell.class
		}
	}
	classDim = maxClass + 1
	masks = make([]uint64, (maxState+1)*classDim)
	for cell := range ss.Cells {
		masks[cell.state*classDim+cell.class] |= 1 << uint(cell.slice)
	}
	return masks, classDim
}

// planCounters are the planner's cross-goroutine stats (PlanStats).
type planCounters struct {
	built   atomic.Uint64
	applied atomic.Uint64
	stale   atomic.Uint64

	buildNsLast atomic.Int64
	buildNsMax  atomic.Int64

	// stallNsMax is the worst worker-side pause any shedding trigger
	// caused: the whole snapshot+build+apply in-line; one snapshot or
	// drop chunk, the launch, or a plan's application under AsyncPlan.
	stallNsMax atomic.Int64
}

// asyncChunk bounds how many bucket entries one Control call may examine
// under AsyncPlan, while accumulating the population snapshot or while
// applying a plan's state drop: the chunk size is the worker's
// worst-case pause (~80 ns per examined entry, so 256 entries ≈ 20 µs).
// A ~4k-entry store still completes within a handful of subsequent
// events; total work is unchanged, only spread thinner.
const asyncChunk = 256

// chunk is the examination budget of one snapshot or drop step: bounded
// under AsyncPlan, unbounded (-1, the whole walk) in-line.
func (h *Hybrid) chunk() int {
	if h.cfg.AsyncPlan {
		return asyncChunk
	}
	return -1
}

// Control triggers shedding when the smoothed latency violates the bound.
// It first moves any in-flight work on (drop chunk, then a finished
// plan, then snapshot chunk), then, on a violation outside the delay
// window, starts a new snapshot. The finished snapshot builds a plan: a
// shedding set sized by the relative violation (Eq. 6) whose partial
// matches are dropped (ρS) and whose compiled input filter stays active
// until the bound is satisfied again (ρI). Without AsyncPlan all of it
// happens in this call.
func (h *Hybrid) Control(now event.Time, lat event.Time) vclock.Cost {
	h.sinceShed++
	var work vclock.Cost
	if h.adapter != nil {
		h.adapter.MaybeFold(h.now, h.nowSeq)
	}
	// Continue an in-progress drop first, so retiring a large set never
	// pauses the worker for the whole sweep.
	if h.dropping != nil {
		t0 := time.Now()
		work += h.continueDrop()
		h.noteStall(t0)
	}
	// Then apply a finished plan (even when the bound is satisfied again:
	// the planner already paid for it, and an idle system drops nothing
	// worth keeping — the set still only covers lowest-value cells).
	if p := h.planPending.Swap(nil); p != nil {
		t0 := time.Now()
		work += h.apply(p)
		h.noteStall(t0)
	}
	// Advance an in-progress snapshot regardless of the current latency
	// reading: the violation that started it has been acted on, and an
	// abandoned half-snapshot is pure waste.
	if h.snapping {
		t0 := time.Now()
		h.snapChunk(lat)
		h.noteStall(t0)
		return work
	}
	if lat <= h.cfg.Bound {
		h.inputActive = false
		return work
	}
	if h.sinceShed < h.cfg.DelayEvents {
		return work
	}
	if !h.planInFlight.CompareAndSwap(false, true) {
		return work // a build, an unapplied plan, or a drop is in flight
	}
	// Start the population snapshot. Restart the delay window now, not
	// at apply: the violation signal that justified this plan has been
	// acted on.
	t0 := time.Now()
	h.snapping = true
	h.snapEpoch = h.en.DropEpoch()
	h.snapCur.Reset()
	h.snapScratch.cc = h.snapScratch.cc[:0]
	h.sinceShed = 0
	h.snapChunk(lat)
	if !h.cfg.AsyncPlan {
		// In-line the snapshot ran whole and built its plan (if the
		// selection was not empty): apply it on the triggering event.
		if p := h.planPending.Swap(nil); p != nil {
			work += h.apply(p)
		}
	}
	h.noteStall(t0)
	return work
}

// snapChunk advances the population snapshot by one chunk of the
// class-bucket walk; when the walk completes it converts the accumulated
// cells to planCells and builds a plan from them, on the planner
// goroutine under AsyncPlan. The plan is stamped with the epoch captured
// when the accumulation STARTED: drops are excluded while it runs
// (planInFlight is held), and if a flush or restore moved the epoch
// mid-walk the half-counted population is abandoned rather than handed
// to the knapsack.
func (h *Hybrid) snapChunk(lat event.Time) {
	model, now, nowSeq := h.model, h.now, h.nowSeq
	cc, done := h.en.ClassCellCountsChunk(model.cfg.Slices, func(st event.Time, sq uint64) int {
		return model.sliceOfStart(st, sq, now, nowSeq)
	}, h.snapScratch.cc, &h.snapCur, h.chunk())
	h.snapScratch.cc = cc
	if !done {
		return
	}
	h.snapping = false
	if h.en.DropEpoch() != h.snapEpoch || len(cc) == 0 {
		h.planInFlight.Store(false)
		return
	}
	cells := model.planCellsOf(cc, h.snapScratch.cells[:0])
	h.snapScratch.cells = cells
	violation, epoch, en := h.violation(lat), h.snapEpoch, h.en
	if !h.cfg.AsyncPlan {
		h.buildPlan(cells, violation, epoch, en)
		return
	}
	// The label lets profiles prove the selection path never runs on a
	// worker (make profile-shed).
	go pprof.Do(context.Background(), pprof.Labels("cep_role", "shed_planner"), func(context.Context) {
		h.buildPlan(cells, violation, epoch, en)
	})
}

// apply makes a finished plan effective, or discards it when the
// population it was built for has been retired since: the compiled input
// filter swaps in immediately (one atomic store), the state drop starts.
// planInFlight stays held until the drop completes, so no new plan is
// built against a population mid-retirement.
func (h *Hybrid) apply(p *shedPlan) vclock.Cost {
	if p.en != h.en || p.epoch != h.en.DropEpoch() {
		h.pstats.stale.Add(1)
		h.planInFlight.Store(false)
		return 0
	}
	h.pstats.applied.Add(1)
	h.current = p.set
	h.sinceShed = 0
	h.ShedTriggers++
	work := EstimationWork(p.set.Items)
	if h.cfg.Mode != ModeStateOnly {
		h.table.Store(p.table)
		h.inputActive = true
	}
	if h.cfg.Mode != ModeInputOnly {
		h.dropping = p
		work += h.continueDrop()
	} else {
		h.planInFlight.Store(false)
	}
	return work
}

// continueDrop advances the drop of the plan being applied by one chunk,
// resuming at the saved cursor so completed buckets are never rescanned.
// Releases planInFlight once the sweep completes.
func (h *Hybrid) continueDrop() vclock.Cost {
	p := h.dropping
	masks, classDim, model := p.masks, p.classDim, h.model
	now, nowSeq := h.now, h.nowSeq
	pred := func(pm *engine.PartialMatch) bool {
		class := pm.Class
		if class < 0 {
			class = 0
		}
		idx := pm.State()*classDim + class
		if idx >= len(masks) || masks[idx] == 0 {
			return false
		}
		return masks[idx]&(1<<uint(model.SliceOf(pm, now, nowSeq))) != 0
	}
	_, cost, done := h.en.DropClassesBounded(p.pairs, pred, h.chunk(), &p.cursor)
	if done {
		h.dropping = nil
		h.planInFlight.Store(false)
	}
	return cost
}

// buildPlan is the knapsack selection plus admission-table compilation;
// it publishes the plan for the worker to apply, or releases
// planInFlight when the selection is empty.
func (h *Hybrid) buildPlan(cells []planCell, violation float64, epoch uint64, en *engine.Engine) {
	start := time.Now()
	ss := selectFromPlanCells(cells, violation, h.cfg.Solver)
	if ss == nil {
		h.planInFlight.Store(false)
		return
	}
	plan := &shedPlan{set: ss, pairs: ss.ClassPairs(), epoch: epoch, en: en}
	plan.masks, plan.classDim = buildDropMasks(ss)
	if h.cfg.Mode != ModeStateOnly {
		plan.table = h.model.CompileAdmitTable(ss)
	}
	d := time.Since(start).Nanoseconds()
	h.pstats.built.Add(1)
	h.pstats.buildNsLast.Store(d)
	casMax(&h.pstats.buildNsMax, d)
	h.planPending.Store(plan)
}

// noteStall folds the elapsed time since t0 into the worker-pause gauge.
func (h *Hybrid) noteStall(t0 time.Time) {
	casMax(&h.pstats.stallNsMax, time.Since(t0).Nanoseconds())
}

func casMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PlanStats reports the planner counters; safe from any goroutine.
func (h *Hybrid) PlanStats() shed.PlanStats {
	var folds uint64
	if h.adapter != nil {
		folds = h.adapter.Folds()
	}
	return shed.PlanStats{
		AdaptFolds:   folds,
		PlansBuilt:   h.pstats.built.Load(),
		PlansApplied: h.pstats.applied.Load(),
		PlansStale:   h.pstats.stale.Load(),
		BuildNsLast:  h.pstats.buildNsLast.Load(),
		BuildNsMax:   h.pstats.buildNsMax.Load(),
		StallNsMax:   h.pstats.stallNsMax.Load(),
	}
}

var _ shed.PlanReporter = (*Hybrid)(nil)
