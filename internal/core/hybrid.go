package core

import (
	"sort"
	"sync/atomic"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/knapsack"
	"cepshed/internal/shed"
	"cepshed/internal/vclock"
)

// Mode selects which shedding functions the strategy applies.
type Mode uint8

const (
	// ModeHybrid applies both ρS and ρI from one shedding set (§IV-C).
	ModeHybrid Mode = iota
	// ModeStateOnly applies only state-based shedding (HyS).
	ModeStateOnly
	// ModeInputOnly applies only input-based shedding (HyI).
	ModeInputOnly
)

// Config configures the hybrid shedding strategy.
type Config struct {
	// Bound is the latency bound θ.
	Bound event.Time
	// Mode selects hybrid, state-only, or input-only operation.
	Mode Mode
	// DelayEvents is j: the minimum number of processed events between
	// consecutive state-shedding triggers, so the effect of a shed can
	// materialize in the smoothed latency before re-triggering (§IV-C).
	// Default 1000, matching the latency smoothing window; shorter delays
	// re-shed against a stale signal and cumulatively over-shed.
	DelayEvents int
	// Solver selects the knapsack algorithm (§V-C). Exact DP by default.
	Solver knapsack.Solver
	// Adapt enables online adaptation of the cost model (§V-B).
	Adapt bool
	// AsyncPlan moves shedding-set selection and admission-table
	// compilation to a planner goroutine: on a bound violation the worker
	// snapshots per-cell populations (cheap, from the engine's class
	// buckets) and keeps processing; the planner solves the knapsack and
	// publishes a compiled plan the worker applies on a later Control
	// call, unless the partial-match population it was built for has been
	// retired (drop-epoch fence). Off (synchronous selection, effective
	// on the triggering event) by default — the paper-reproduction
	// experiments run under the virtual clock and need the trigger to
	// take effect deterministically in-line.
	AsyncPlan bool
}

func (c Config) withDefaults() Config {
	if c.DelayEvents <= 0 {
		c.DelayEvents = 1000
	}
	return c
}

// Hybrid is the paper's shedding strategy: one cost model drives both
// state-based shedding (discarding partial matches from the shedding set)
// and input-based shedding (a class-predicate filter over raw events that
// stays active until the latency bound is met again).
type Hybrid struct {
	model   *Model
	cfg     Config
	adapter *Adapter
	en      *engine.Engine

	current     *SheddingSet
	inputActive bool
	sinceShed   int

	// table is the compiled admission filter for `current` (admit.go),
	// published by atomic pointer swap so the async planner can install a
	// new one while AdmitEvent reads the old. ownBuf is the per-event
	// feature scratch that keeps the decision allocation-free; pmBuf is
	// the same for classifying each new partial match.
	table  atomic.Pointer[AdmitTable]
	ownBuf []float64
	pmBuf  []float64

	// Async-planner state (planner.go). planPending is the built-and-not-
	// yet-applied plan; planInFlight serializes to at most one build;
	// dropping is the plan whose state drop is being applied in bounded
	// chunks (worker-owned — only Control touches it).
	planPending  atomic.Pointer[shedPlan]
	planInFlight atomic.Bool
	dropping     *shedPlan
	// Incremental population-snapshot accumulation (worker-owned; active
	// while planInFlight is held): the walk cursor, the epoch the
	// accumulation started at, and the reused cell/planCell storage.
	snapping    bool
	snapEpoch   uint64
	snapCur     engine.CellCursor
	snapScratch planScratch
	pstats      planCounters

	now    event.Time
	nowSeq uint64

	// Stats
	ShedTriggers  uint64
	ShedEventsCnt uint64
}

// NewHybrid builds the strategy over a trained model.
func NewHybrid(model *Model, cfg Config) *Hybrid {
	cfg = cfg.withDefaults()
	h := &Hybrid{
		model:     model,
		cfg:       cfg,
		sinceShed: cfg.DelayEvents,
		ownBuf:    make([]float64, model.spec.maxOwnDims()),
		pmBuf:     make([]float64, 0, model.spec.maxDims()),
	}
	if cfg.Adapt {
		h.adapter = NewAdapter(model)
	}
	if cfg.AsyncPlan {
		// Warm the snapshot scratch so the first trigger's launch pause
		// does not include growing these from nil.
		h.snapScratch.cc = make([]engine.CellCount, 0, 256)
		h.snapScratch.cells = make([]planCell, 0, 256)
	}
	return h
}

// Name identifies the strategy variant.
func (h *Hybrid) Name() string {
	switch h.cfg.Mode {
	case ModeStateOnly:
		return "HyS"
	case ModeInputOnly:
		return "HyI"
	default:
		return "Hybrid"
	}
}

// Attach installs the classification hook: every new partial match is
// classified by its state's decision tree immediately on creation (§V-B).
func (h *Hybrid) Attach(en *engine.Engine) {
	h.en = en
	prev := en.OnCreate
	en.OnCreate = func(pm *engine.PartialMatch) {
		pm.Class = h.model.classifyInto(pm, h.pmBuf)
		if h.adapter != nil {
			h.adapter.OnCreate(pm, h.now, h.nowSeq)
		}
		if prev != nil {
			prev(pm)
		}
	}
}

// AdmitEvent implements ρI: while input shedding is active, an event is
// discarded when, for every state it could extend into, EVERY class
// compatible with the event's own attribute values lies in the shedding
// set — i.e. the class predicates prove the event worthless. Events of
// types the pattern does not use are never filtered here (the engine
// discards them for the base ingest cost anyway). The decision runs on
// the compiled admission table: a type lookup plus flat region compares,
// no allocation (TestAdmitEventZeroAlloc pins that).
func (h *Hybrid) AdmitEvent(e *event.Event, now event.Time) bool {
	h.now = e.Time
	h.nowSeq = e.Seq
	if !h.inputActive {
		return true
	}
	t := h.table.Load()
	if t == nil || t.Admit(e, h.ownBuf) {
		return true
	}
	h.ShedEventsCnt++
	return false
}

// Observe feeds complete matches into online adaptation.
func (h *Hybrid) Observe(res *engine.Result, now event.Time) {
	if h.adapter == nil {
		return
	}
	for _, m := range res.Matches {
		h.adapter.OnMatch(m, h.now, h.nowSeq)
	}
}

// Control triggers shedding when the smoothed latency violates the bound:
// it selects a shedding set sized by the relative violation (Eq. 6),
// drops the partial matches it covers (ρS), and activates the derived
// input filter until the bound is satisfied again. With AsyncPlan the
// selection runs on the planner goroutine and the worker only snapshots
// populations and applies finished plans.
func (h *Hybrid) Control(now event.Time, lat event.Time) vclock.Cost {
	h.sinceShed++
	var work vclock.Cost
	if h.adapter != nil {
		h.adapter.MaybeFold(h.now, h.nowSeq)
	}
	if h.cfg.AsyncPlan {
		return h.controlAsync(lat, work)
	}
	if lat <= h.cfg.Bound {
		h.inputActive = false
		return work
	}
	if h.sinceShed < h.cfg.DelayEvents {
		return work
	}
	t0 := time.Now()
	// The planner's scratch is free: Control never reaches here with
	// AsyncPlan set.
	cells := h.model.snapshotPlanCells(h.en, h.now, h.nowSeq, &h.snapScratch)
	ss := selectFromPlanCells(cells, h.violation(lat), h.cfg.Solver)
	if ss == nil {
		return work
	}
	work += h.applySet(ss, ss.ClassPairs(), nil)
	h.noteStall(t0)
	return work
}

// violation is the relative bound violation (Eq. 6), capped per trigger:
// the smoothed latency lags the queue state, so a very large apparent
// violation would select nearly every cell and blank the system;
// shedding in capped steps converges to the bound without the overshoot.
func (h *Hybrid) violation(lat event.Time) float64 {
	v := float64(lat-h.cfg.Bound) / float64(lat)
	if v > 0.6 {
		v = 0.6
	}
	return v
}

// applySet makes a selected shedding set effective: ρS over exactly the
// class buckets the set covers, then the compiled input filter. table
// may be a pre-compiled table from the planner (nil compiles in-line).
func (h *Hybrid) applySet(ss *SheddingSet, pairs [][2]int, table *AdmitTable) vclock.Cost {
	h.current = ss
	h.sinceShed = 0
	h.ShedTriggers++
	work := EstimationWork(ss.Items)

	if h.cfg.Mode != ModeInputOnly {
		_, dropWork := h.en.DropClasses(pairs, func(pm *engine.PartialMatch) bool {
			class := pm.Class
			if class < 0 {
				class = 0
			}
			return ss.Contains(pm.State(), class, h.model.SliceOf(pm, h.now, h.nowSeq))
		})
		work += dropWork
	}
	if h.cfg.Mode != ModeStateOnly {
		if table == nil {
			table = h.model.CompileAdmitTable(ss)
		}
		h.table.Store(table)
		h.inputActive = true
	}
	return work
}

// InputActive reports whether the input filter is currently applied.
func (h *Hybrid) InputActive() bool { return h.inputActive }

// CurrentSet returns the most recent shedding set (may be nil).
func (h *Hybrid) CurrentSet() *SheddingSet { return h.current }

// ImposeSet activates a shedding set directly, bypassing the latency
// trigger — benches and tests use it to exercise the admission path with
// a known set. It compiles and publishes the admission table but does
// not drop partial matches.
func (h *Hybrid) ImposeSet(ss *SheddingSet) {
	h.current = ss
	if ss == nil {
		h.table.Store(nil)
		h.inputActive = false
		return
	}
	h.table.Store(h.model.CompileAdmitTable(ss))
	h.inputActive = true
}

var _ shed.Strategy = (*Hybrid)(nil)

// FixedRatioHybrid is the fixed-shedding-ratio variant used by the
// selection-quality experiment (Fig 6): instead of reacting to a latency
// bound, it sheds a fixed fraction of data chosen by cost-model utility.
// In input mode (HyI) it sheds the target fraction of input events with
// the lowest class utility; in state mode (HyS) it continuously sheds the
// lowest-utility partial matches to keep the dropped/created ratio at the
// target.
type FixedRatioHybrid struct {
	model *Model
	input bool
	en    *engine.Engine

	util    *shed.UtilityThreshold
	tracker shed.RatioTracker
	period  int
	sinceGC int

	// Reused scratch: per-event own features (ownBuf), per-partial-match
	// classifier features (pmBuf), the population
	// cells of the last trigger (cellBuf), the per-cell drop budgets and
	// the covered bucket pairs (budgets/pairBuf/pairSeen) — dense arrays
	// replacing the per-PM shedSet map of the previous implementation.
	ownBuf   []float64
	pmBuf    []float64
	cellBuf  []engine.CellCount
	ranked   []rankedCell
	budgets  []int32
	pairBuf  [][2]int
	pairSeen []bool

	now    event.Time
	nowSeq uint64
}

// rankedCell orders population cells by remaining contribution.
type rankedCell struct {
	idx  int // into the cell snapshot
	util float64
}

// NewFixedRatioHybrid builds the fixed-ratio variant. input selects HyI
// (events) versus HyS (partial matches).
func NewFixedRatioHybrid(model *Model, ratio float64, input bool, seed int64) *FixedRatioHybrid {
	return &FixedRatioHybrid{
		model:   model,
		input:   input,
		util:    shed.NewUtilityThreshold(ratio, 512, seed),
		tracker: shed.RatioTracker{Target: ratio},
		period:  32,
		ownBuf:  make([]float64, 0, model.spec.maxOwnDims()),
		pmBuf:   make([]float64, 0, model.spec.maxDims()),
	}
}

// Name returns HyI or HyS.
func (f *FixedRatioHybrid) Name() string {
	if f.input {
		return "HyI"
	}
	return "HyS"
}

// Attach installs classification and creation tracking.
func (f *FixedRatioHybrid) Attach(en *engine.Engine) {
	f.en = en
	prev := en.OnCreate
	en.OnCreate = func(pm *engine.PartialMatch) {
		pm.Class = f.model.classifyInto(pm, f.pmBuf)
		f.tracker.Seen(1)
		if prev != nil {
			prev(pm)
		}
	}
}

// AdmitEvent sheds the lowest-utility events at the target rate (HyI).
func (f *FixedRatioHybrid) AdmitEvent(e *event.Event, now event.Time) bool {
	f.now = e.Time
	f.nowSeq = e.Seq
	if !f.input {
		return true
	}
	return !f.util.ShouldShed(f.eventUtility(e))
}

// eventUtility is the best class contribution the event could have
// across the states it could extend (optimistic over its candidate
// classes); events of irrelevant types have utility 0. An event that can
// bind the FINAL state completes matches directly; no partial matches
// ever rest there, so the trained classes carry no signal — such events
// are priced as maximally valuable rather than worthless.
func (f *FixedRatioHybrid) eventUtility(e *event.Event) float64 {
	best := 0.0
	m := f.model.machine
	for s := range m.States {
		if m.States[s].Comp.Type != e.Type {
			continue
		}
		if m.Final(s) && !m.States[s].Comp.Kleene {
			return 1e18
		}
		if u := f.model.eventBestContribution(s, e, f.ownBuf); u > best {
			best = u
		}
	}
	return best
}

// Observe is a no-op for the fixed-ratio variant.
func (f *FixedRatioHybrid) Observe(*engine.Result, event.Time) {}

// Control keeps the dropped/created partial-match ratio at the target by
// periodically shedding the lowest-utility cost-model CELLS — shedding is
// realized per class, as §V-A prescribes, with only the marginal cell
// shed partially to land on the target ratio. Populations come from the
// engine's class buckets and the drop walks only the covered buckets,
// with per-cell count budgets in a dense array (no per-PM map probes).
func (f *FixedRatioHybrid) Control(now event.Time, lat event.Time) vclock.Cost {
	if f.input {
		return 0
	}
	f.sinceGC++
	if f.sinceGC < f.period {
		return 0
	}
	f.sinceGC = 0
	deficit := f.tracker.Deficit()
	if deficit <= 0 {
		return 0
	}
	model := f.model
	slices := model.Slices()
	cells := f.en.ClassCellCounts(slices, func(st event.Time, sq uint64) int {
		return model.sliceOfStart(st, sq, f.now, f.nowSeq)
	}, f.cellBuf[:0])
	f.cellBuf = cells
	if len(cells) == 0 {
		return 0
	}
	// Rank cells by the remaining contribution per member — the fixed-
	// ratio budget is a COUNT of partial matches, so the cost side is
	// irrelevant when the quota is items, not resources. Ties keep the
	// snapshot's (state, class, slice) order.
	ranked := f.ranked[:0]
	maxClass := 0
	for i, cc := range cells {
		c, _ := model.Estimate(cc.State, cc.Class, cc.Slice)
		ranked = append(ranked, rankedCell{idx: i, util: c})
		if cc.Class > maxClass {
			maxClass = cc.Class
		}
	}
	f.ranked = ranked
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].util < ranked[j].util })

	classDim := maxClass + 1
	nStates := len(model.machine.States)
	f.budgets = resizeInt32(f.budgets, nStates*classDim*slices)
	f.pairSeen = resizeBool(f.pairSeen, nStates*classDim)
	pairs := f.pairBuf[:0]
	remaining := deficit
	for _, rc := range ranked {
		if remaining <= 0 {
			break
		}
		cc := cells[rc.idx]
		take := cc.Count
		if take > remaining {
			take = remaining // partial marginal cell
		}
		f.budgets[(cc.State*classDim+cc.Class)*slices+cc.Slice] = int32(take)
		remaining -= take
		if pi := cc.State*classDim + cc.Class; !f.pairSeen[pi] {
			f.pairSeen[pi] = true
			pairs = append(pairs, [2]int{cc.State, cc.Class})
		}
	}
	f.pairBuf = pairs

	n, work := f.en.DropClasses(pairs, func(pm *engine.PartialMatch) bool {
		class := pm.Class
		if class < 0 {
			class = 0
		}
		sl := model.sliceOfStart(pm.StartTime(), pm.StartSeq(), f.now, f.nowSeq)
		i := (pm.State()*classDim+class)*slices + sl
		if f.budgets[i] > 0 {
			f.budgets[i]--
			return true
		}
		return false
	})
	f.tracker.Shed(n)
	for i := range f.pairSeen {
		f.pairSeen[i] = false
	}
	return work + EstimationWork(len(cells))
}

// resizeInt32 returns a zeroed slice of length n, reusing capacity.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resizeBool returns a zeroed slice of length n, reusing capacity.
func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

var _ shed.Strategy = (*FixedRatioHybrid)(nil)
