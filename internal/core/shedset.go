package core

import (
	"sort"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/knapsack"
)

// cellKey names one cost-model cell.
type cellKey struct{ state, class, slice int }

// SheddingSet is the outcome of shedding-set selection (§IV-B): the
// (state, class, slice) cells whose live partial matches are to be shed,
// plus the (state, class) pairs driving the input-based filter ρI.
type SheddingSet struct {
	// Cells are the selected cells.
	Cells map[cellKey]bool
	// Classes are the (state, class) pairs covered by the set, used to
	// derive the input filter (§IV-C).
	Classes map[[2]int]bool
	// PredictedSavings is the consumption share the set covers.
	PredictedSavings float64
	// PredictedLoss is the contribution share the set gives up.
	PredictedLoss float64
	// Items is the number of knapsack items the selection ran over.
	Items int
}

// Contains reports whether a live partial match falls into the set.
func (ss *SheddingSet) Contains(state, class, slice int) bool {
	if ss == nil {
		return false
	}
	return ss.Cells[cellKey{state, class, slice}]
}

// ContainsClass reports whether a (state, class) pair is in the set.
func (ss *SheddingSet) ContainsClass(state, class int) bool {
	if ss == nil {
		return false
	}
	return ss.Classes[[2]int{state, class}]
}

// ClassPairs returns the (state, class) pairs of the set in ascending
// order — the bucket list a DropClasses pass walks. Every cell of the
// set projects into this list, so walking only these buckets visits
// every match Contains could select.
func (ss *SheddingSet) ClassPairs() [][2]int {
	if ss == nil || len(ss.Classes) == 0 {
		return nil
	}
	pairs := make([][2]int, 0, len(ss.Classes))
	for p := range ss.Classes {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// planCell is one populated cost-model cell with the estimates captured
// at snapshot time. A []planCell is self-contained: selection (and table
// compilation) can run on the planner goroutine without touching the
// engine or the model's online-adapted estimates, which the worker
// mutates.
type planCell struct {
	state, class, slice int
	count               int
	contrib, consume    float64 // per-member estimates at snapshot time
}

// planScratch is reusable snapshot storage. The trigger owns one:
// planInFlight serializes plan builds, and the planner goroutine is
// finished with the cell slice before the flag is released, so reusing
// the buffers across launches never races with a reader.
type planScratch struct {
	cc    []engine.CellCount
	cells []planCell
}

// snapshotPlanCells reads the engine's class-bucket populations and the
// model's current estimates into plan cells, in ascending
// (state, class, slice) order. This is the cheap hot-path half of a shed
// trigger; everything downstream of it can run asynchronously. A nil
// scratch allocates fresh slices; a reused scratch makes the snapshot
// allocation-free after warmup.
func (model *Model) snapshotPlanCells(en *engine.Engine, now event.Time, nowSeq uint64, scratch *planScratch) []planCell {
	if scratch == nil {
		scratch = &planScratch{}
	}
	cc := en.ClassCellCounts(model.cfg.Slices, func(st event.Time, sq uint64) int {
		return model.sliceOfStart(st, sq, now, nowSeq)
	}, scratch.cc[:0])
	scratch.cc = cc
	if len(cc) == 0 {
		return nil
	}
	scratch.cells = model.planCellsOf(cc, scratch.cells[:0])
	return scratch.cells
}

// planCellsOf appends to buf one plan cell per counted cell, carrying
// the model's current estimates, in the order of cc.
func (model *Model) planCellsOf(cc []engine.CellCount, buf []planCell) []planCell {
	for _, c := range cc {
		contrib, consume := model.Estimate(c.State, c.Class, c.Slice)
		buf = append(buf, planCell{
			state: c.State, class: c.Class, slice: c.Slice,
			count: c.Count, contrib: contrib, consume: consume,
		})
	}
	return buf
}

// selectFromPlanCells solves the covering knapsack of Eq. 8 over
// pre-aggregated cells: minimize the shed contribution subject to the
// shed consumption covering at least the relative latency violation.
// Pure function of its inputs — safe on any goroutine.
func selectFromPlanCells(cells []planCell, violation float64, solver knapsack.Solver) *SheddingSet {
	if violation <= 0 || len(cells) == 0 {
		return nil
	}
	if violation > 1 {
		violation = 1
	}
	items := make([]knapsack.Item, 0, len(cells))
	var totalC, totalW float64
	for i, pc := range cells {
		c := pc.contrib * float64(pc.count)
		w := pc.consume * float64(pc.count)
		items = append(items, knapsack.Item{ID: i, Value: c, Weight: w})
		totalC += c
		totalW += w
	}
	if totalW <= 0 {
		return nil
	}
	// Normalize to shares so the violation is directly the cover bound.
	for i := range items {
		if totalC > 0 {
			items[i].Value /= totalC
		}
		items[i].Weight /= totalW
	}
	shedIDs := knapsack.MinCover(items, violation, solver)
	ss := &SheddingSet{
		Cells:   make(map[cellKey]bool, len(shedIDs)),
		Classes: map[[2]int]bool{},
		Items:   len(items),
	}
	for _, id := range shedIDs {
		pc := cells[id]
		ss.Cells[cellKey{pc.state, pc.class, pc.slice}] = true
		ss.Classes[[2]int{pc.state, pc.class}] = true
		ss.PredictedSavings += items[id].Weight
		ss.PredictedLoss += items[id].Value
	}
	return ss
}

// SelectSheddingSet selects the shedding set for en's live partial
// matches: it reads their class-bucket populations into cost-model
// cells (snapshotPlanCells), takes each cell's relative contribution Δ+
// and consumption Δ− (Eqs. 5 and 7), and solves the covering knapsack
// of Eq. 8 (selectFromPlanCells) — the route the async planner takes.
func (model *Model) SelectSheddingSet(
	en *engine.Engine,
	now event.Time, nowSeq uint64,
	violation float64,
	solver knapsack.Solver,
) *SheddingSet {
	if violation <= 0 {
		return nil
	}
	return selectFromPlanCells(model.snapshotPlanCells(en, now, nowSeq, nil), violation, solver)
}
