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

// This file is the asynchronous shed planner. The synchronous trigger
// path runs slice/utility estimation plus the covering knapsack — and
// compiles the admission table — on the worker, exactly when the worker
// is CPU-starved. With Config.AsyncPlan the worker's half of a trigger
// shrinks to: snapshot the per-cell populations off the class buckets
// (O(cells)), hand them to a goroutine, and on a later Control call
// apply whatever plan the planner finished — a bucketed drop plus an
// atomic table swap.
//
// Thread-safety inventory: the goroutine receives value-typed plan
// cells (population counts plus estimate snapshots), so it never reads
// the model's online-adapted estimates (the worker's Adapter mutates
// those); CompileAdmitTable reads only model structure that is immutable
// after Train. Plans are fenced by the engine's drop epoch: a plan built
// for a population that has since been dropped, flushed, or restored is
// discarded as stale rather than applied.

// shedPlan is one finished planner product, ready to apply.
type shedPlan struct {
	set   *SheddingSet
	pairs [][2]int    // set.ClassPairs(), precomputed off-thread
	table *AdmitTable // nil in state-only mode
	epoch uint64      // en.DropEpoch() when the population was snapshot
	en    *engine.Engine

	// Incremental-drop state, precomputed off-thread so the per-member
	// predicate on the worker is mask arithmetic instead of a map probe:
	// masks[state*classDim+class] has bit s set iff cell (state, class,
	// slice s) is in the set. nil when a slice index exceeds 63 (then the
	// predicate falls back to the Cells map). cursor is the worker's
	// resume position in the bounded bucket walk.
	masks    []uint64
	classDim int
	cursor   engine.DropCursor
}

// buildDropMasks precomputes the per-(state, class) covered-slice
// bitmasks. Returns nil masks when any slice index does not fit.
func buildDropMasks(ss *SheddingSet) (masks []uint64, classDim int) {
	maxState, maxClass := 0, 0
	for cell := range ss.Cells {
		if cell.slice < 0 || cell.slice > 63 {
			return nil, 0
		}
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
	// caused: select+drop+compile for the sync path; snapshot, launch,
	// and plan application for the async path.
	stallNsMax atomic.Int64
}

// asyncDropChunk bounds how many bucket entries one Control call may
// examine while applying a plan incrementally: the chunk size is the
// worker's worst-case drop pause (~80 ns per examined entry, so 256
// entries ≈ 20 µs). A ~4k-entry store still completes within a handful
// of subsequent events; total work is unchanged, only spread thinner.
const asyncDropChunk = 256

// snapChunkEntries bounds how many bucket entries one Control call may
// examine while accumulating the planner's population snapshot — the
// same incremental treatment the drop gets, because on a large store the
// one-shot O(live) snapshot walk IS the worst trigger pause.
const snapChunkEntries = 256

// controlAsync is Control's trigger logic under AsyncPlan.
func (h *Hybrid) controlAsync(lat event.Time, work vclock.Cost) vclock.Cost {
	// Continue an in-progress incremental drop first: bounded chunks per
	// Control call, so retiring a large set never pauses the worker for
	// the whole sweep.
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
		if p.en == h.en && p.epoch == h.en.DropEpoch() {
			work += h.beginApply(p)
			h.pstats.applied.Add(1)
		} else {
			h.pstats.stale.Add(1)
			h.planInFlight.Store(false)
		}
		h.noteStall(t0)
	}
	// Advance an in-progress snapshot accumulation regardless of the
	// current latency reading: the violation that started it has been
	// acted on, and an abandoned half-snapshot is pure waste.
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
	// Start accumulating the population snapshot. Restart the delay
	// window now, not at apply: the violation signal that justified this
	// plan has been acted on.
	t0 := time.Now()
	h.snapping = true
	h.snapEpoch = h.en.DropEpoch()
	h.snapCur.Reset()
	h.snapScratch.cc = h.snapScratch.cc[:0]
	h.sinceShed = 0
	h.snapChunk(lat)
	h.noteStall(t0)
	return work
}

// snapChunk advances the planner's population snapshot by one bounded
// chunk of the class-bucket walk; when the walk completes it converts
// the accumulated cells to planCells and hands them to the planner
// goroutine. The plan is stamped with the epoch captured when the
// accumulation STARTED: drops are excluded while it runs (planInFlight
// is held), and if a flush or restore moved the epoch mid-walk the
// half-counted population is abandoned rather than handed to the
// knapsack.
func (h *Hybrid) snapChunk(lat event.Time) {
	model, now, nowSeq := h.model, h.now, h.nowSeq
	cc, done := h.en.ClassCellCountsChunk(model.cfg.Slices, func(st event.Time, sq uint64) int {
		return model.sliceOfStart(st, sq, now, nowSeq)
	}, h.snapScratch.cc, &h.snapCur, snapChunkEntries)
	h.snapScratch.cc = cc
	if !done {
		return
	}
	h.snapping = false
	if h.en.DropEpoch() != h.snapEpoch || len(cc) == 0 {
		h.planInFlight.Store(false)
		return
	}
	cells := h.snapScratch.cells[:0]
	for _, c := range cc {
		contrib, consume := model.Estimate(c.State, c.Class, c.Slice)
		cells = append(cells, planCell{
			state: c.State, class: c.Class, slice: c.Slice,
			count: c.Count, contrib: contrib, consume: consume,
		})
	}
	h.snapScratch.cells = cells
	go h.buildPlan(cells, h.violation(lat), h.snapEpoch, h.en)
}

// beginApply makes a planner-built plan effective: the compiled input
// filter swaps in immediately (one atomic store), the state drop starts
// incrementally. planInFlight stays held until the drop completes, so no
// new plan is built against a population mid-retirement.
func (h *Hybrid) beginApply(p *shedPlan) vclock.Cost {
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

// continueDrop advances the bounded drop of the plan being applied by
// one asyncDropChunk-entry chunk, resuming at the saved cursor so
// completed buckets are never rescanned. Releases planInFlight once the
// sweep completes.
func (h *Hybrid) continueDrop() vclock.Cost {
	p := h.dropping
	var pred func(*engine.PartialMatch) bool
	if p.masks != nil {
		masks, classDim, model := p.masks, p.classDim, h.model
		now, nowSeq := h.now, h.nowSeq
		pred = func(pm *engine.PartialMatch) bool {
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
	} else {
		ss := p.set
		pred = func(pm *engine.PartialMatch) bool {
			class := pm.Class
			if class < 0 {
				class = 0
			}
			return ss.Contains(pm.State(), class, h.model.SliceOf(pm, h.now, h.nowSeq))
		}
	}
	_, cost, done := h.en.DropClassesBounded(p.pairs, pred, asyncDropChunk, &p.cursor)
	if done {
		h.dropping = nil
		h.planInFlight.Store(false)
	}
	return cost
}

// buildPlan runs on the planner goroutine: knapsack selection plus
// admission-table compilation, labeled cep_role=shed_planner so profiles
// can prove the selection path never runs on a worker.
func (h *Hybrid) buildPlan(cells []planCell, violation float64, epoch uint64, en *engine.Engine) {
	start := time.Now()
	var plan *shedPlan
	pprof.Do(context.Background(), pprof.Labels("cep_role", "shed_planner"), func(context.Context) {
		ss := selectFromPlanCells(cells, violation, h.cfg.Solver)
		if ss == nil {
			return
		}
		plan = &shedPlan{set: ss, pairs: ss.ClassPairs(), epoch: epoch, en: en}
		plan.masks, plan.classDim = buildDropMasks(ss)
		if h.cfg.Mode != ModeStateOnly {
			plan.table = h.model.CompileAdmitTable(ss)
		}
	})
	if plan == nil {
		h.planInFlight.Store(false)
		return
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
