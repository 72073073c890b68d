package engine

import (
	"cepshed/internal/event"
	"cepshed/internal/vclock"
)

// This file implements the class-bucketed partial-match index: beside
// the type index (index.go), every live match is also linked into the
// bucket of its (state, effective class) pair. Two consumers rely on it:
//
//   - DropClasses retires a shedding set by walking only the buckets the
//     set covers — O(candidates) physical work instead of the O(live)
//     full-store scan DropIf does — while still charging the paper's
//     virtual PerScan for every live match, the same physical-vs-virtual
//     split the expiry ring and the per-event scan charge use.
//   - ClassCellCounts reads per-(state, class, slice) populations off the
//     buckets without touching the full store, which is what makes the
//     async shed planner's population snapshot cheap enough for the hot
//     path.
//
// The structure mirrors typeBucket: entries in registration order, a gen
// guard against recycled objects, lazy per-bucket compaction. Unlike the
// type index a match lives in exactly one class bucket, witnesses
// included (witnesses are shed-eligible): it is the source of truth for
// shedding, not a dispatch optimization.

// classEntry is one class-bucket slot; gen snapshots the match's recycle
// generation so entries pointing at a reused object are skipped.
type classEntry struct {
	pm  *PartialMatch
	gen uint32
}

// classBucket holds, in registration order, the matches of one
// (state, effective class) pair. dead counts entries whose match died.
type classBucket struct {
	entries []classEntry
	dead    int
}

// classIndex groups live matches by (state, effective class). A match's
// effective class is max(Class, 0): unclassified matches bucket under
// class 0, matching the max(Class, 0) convention every shedding
// predicate already uses. byState rows grow on demand as classes appear.
type classIndex struct {
	byState [][]*classBucket
	dead    int // dead entries across all buckets (compaction valve)
	buckets int
}

// effectiveClass is the bucket class of a match: its model class, with
// "unclassified" (negative) folded onto class 0.
func effectiveClass(pm *PartialMatch) int {
	if pm.Class > 0 {
		return pm.Class
	}
	return 0
}

// classIndexPM links a freshly registered match into its class bucket.
// Must run after OnCreate, which is what assigns pm.Class; the class is
// immutable afterwards (registered matches only ever mutate their dead
// flag), so the bucket link stays valid for the match's lifetime.
func (en *Engine) classIndexPM(pm *PartialMatch) {
	s := pm.cur
	c := effectiveClass(pm)
	row := en.classes.byState[s]
	for c >= len(row) {
		row = append(row, nil)
	}
	b := row[c]
	if b == nil {
		b = &classBucket{}
		row[c] = b
		en.classes.buckets++
	}
	en.classes.byState[s] = row
	b.entries = append(b.entries, classEntry{pm: pm, gen: pm.gen})
}

// noteDeadClass records a match's death in its class bucket (called from
// noteDead for every match, witnesses included).
func (en *Engine) noteDeadClass(pm *PartialMatch) {
	row := en.classes.byState[pm.cur]
	c := effectiveClass(pm)
	if c < len(row) {
		if b := row[c]; b != nil {
			b.dead++
			en.classes.dead++
		}
	}
}

// compactClassBucket drops dead and stale entries in place, preserving
// registration order.
func (en *Engine) compactClassBucket(b *classBucket) {
	live := b.entries[:0]
	for _, ent := range b.entries {
		if ent.pm.gen == ent.gen && !ent.pm.dead {
			live = append(live, ent)
		}
	}
	for i := len(live); i < len(b.entries); i++ {
		b.entries[i] = classEntry{}
	}
	b.entries = live
	en.classes.dead -= b.dead
	b.dead = 0
}

// compactClassIndex sweeps every dirty bucket (safety valve, mirroring
// the type index's: buckets of classes the stream stopped producing
// would keep dead entries forever otherwise).
func (en *Engine) compactClassIndex() {
	for _, row := range en.classes.byState {
		for _, b := range row {
			if b != nil && b.dead > 0 {
				en.compactClassBucket(b)
			}
		}
	}
}

// resetClassIndex clears all buckets (Flush / Restore-onto-fresh).
func (en *Engine) resetClassIndex() {
	for _, row := range en.classes.byState {
		for _, b := range row {
			if b == nil {
				continue
			}
			for i := range b.entries {
				b.entries[i] = classEntry{}
			}
			b.entries = b.entries[:0]
			b.dead = 0
		}
	}
	en.classes.dead = 0
}

// DropEpoch counts the mutations that invalidate a previously read class
// population: shedding drops, flushes, and restores. The async shed
// planner stamps each plan with the epoch its population snapshot was
// read at and discards the plan if the epoch moved before it could be
// applied (the population the knapsack optimized no longer exists).
// Window expiry deliberately does not bump it: expiry shrinks cells the
// plan would have shed anyway, it never grows them.
func (en *Engine) DropEpoch() uint64 { return en.dropEpoch }

// DropClasses removes every live match in the given (state, class)
// buckets for which shed returns true and returns the number removed
// along with the same virtual cost DropIf charges: the paper's shedder
// inspects every live match (one PerScan each) plus one PerDrop per
// match removed. The bucketed walk only touches the covered buckets
// physically; the PerScan charge over the full live population is
// applied arithmetically, exactly like the per-event scan charge in
// Process.
func (en *Engine) DropClasses(pairs [][2]int, shed func(*PartialMatch) bool) (int, vclock.Cost) {
	liveBefore := en.live
	var cur DropCursor
	n, _ := en.dropClassesWalk(pairs, shed, -1, &cur)
	return n, vclock.Cost(liveBefore)*en.costs.PerScan + vclock.Cost(n)*en.costs.PerDrop
}

// DropCursor is a resumable position in a bounded class-drop walk: the
// pair being swept and the next entry index inside its bucket. The zero
// value starts a fresh sweep. If the bucket compacts between calls the
// saved entry index can skip (or re-examine) a few entries; re-examining
// is idempotent — dropped members are gone — and a skipped member is
// simply left for the next plan, which re-reads the population anyway.
type DropCursor struct {
	pair, entry int
}

// DropClassesBounded is DropClasses with an examination budget: the walk
// stops after touching budget bucket entries (live or stale) and reports
// done=false, so a caller on the hot path can retire a large shedding
// set in bounded pauses across several calls (the async planner's
// incremental plan application). The budget bounds entries EXAMINED, not
// matches dropped — a covered bucket whose members rarely satisfy the
// predicate costs scan time, not drop time, and an unbounded scan is
// exactly the pause this call exists to avoid. cur carries the resume
// position across calls. Matches that enter an already-swept bucket
// between calls are deliberately not chased — they were created after
// the plan's population and are not part of what it covers. The virtual
// charge is per live entry actually examined plus PerDrop per removal,
// matching the physical work of the bounded pass rather than DropIf's
// full-scan identity (bounded application is an asynchronous-mode
// mechanism; the paper's synchronous experiments use DropClasses/DropIf,
// whose cost contract is unchanged). Store compaction is deferred to the
// next Process call, which compacts anyway (engine.go).
func (en *Engine) DropClassesBounded(pairs [][2]int, shed func(*PartialMatch) bool, budget int, cur *DropCursor) (n int, cost vclock.Cost, done bool) {
	if budget < 0 {
		liveBefore := en.live
		var full DropCursor
		n, _ := en.dropClassesWalk(pairs, shed, -1, &full)
		return n, vclock.Cost(liveBefore)*en.costs.PerScan + vclock.Cost(n)*en.costs.PerDrop, true
	}
	n, scanned := en.dropClassesWalk(pairs, shed, budget, cur)
	return n, vclock.Cost(scanned)*en.costs.PerScan + vclock.Cost(n)*en.costs.PerDrop, cur.pair >= len(pairs)
}

// dropClassesWalk is the shared bucket walk: budget < 0 means unbounded.
// Returns matches removed and live entries examined; cur is left at the
// position the walk stopped.
func (en *Engine) dropClassesWalk(pairs [][2]int, shed func(*PartialMatch) bool, budget int, cur *DropCursor) (n, scanned int) {
	examined := 0
	for cur.pair < len(pairs) {
		pr := pairs[cur.pair]
		s, c := pr[0], pr[1]
		if s < 0 || s >= len(en.classes.byState) {
			cur.pair++
			cur.entry = 0
			continue
		}
		row := en.classes.byState[s]
		if c < 0 || c >= len(row) {
			cur.pair++
			cur.entry = 0
			continue
		}
		b := row[c]
		if b == nil {
			cur.pair++
			cur.entry = 0
			continue
		}
		// Lazy compaction only at a bucket's first visit (mid-bucket it
		// would shift the entries under the cursor), charged against the
		// budget and skipped when the bucket doesn't fit in what remains:
		// the sweep touches every entry, so an unconditional inline
		// compaction of a large bucket is exactly the O(bucket) pause the
		// budget exists to forbid. Oversized dirty buckets are left to the
		// Process-side valve (compactIfDirty); the walk still skips their
		// dead entries one budget unit at a time.
		if cur.entry == 0 && b.dead > 32 && b.dead*2 > len(b.entries) &&
			(budget < 0 || len(b.entries) <= budget-examined) {
			examined += len(b.entries)
			en.compactClassBucket(b)
		}
		ents := b.entries
		for cur.entry < len(ents) {
			if budget >= 0 && examined >= budget {
				en.finishDrop(n, budget < 0)
				return n, scanned
			}
			ent := &ents[cur.entry]
			cur.entry++
			examined++
			pm := ent.pm
			if pm.gen != ent.gen || pm.dead {
				continue
			}
			scanned++
			if shed(pm) {
				pm.dead = true
				en.noteDead(pm)
				n++
			}
		}
		cur.pair++
		cur.entry = 0
	}
	en.finishDrop(n, budget < 0)
	return n, scanned
}

// finishDrop is the common epilogue of a (possibly partial) drop pass.
// Bounded passes skip the store compaction: the next Process call
// compacts anyway (engine.go), and sweeping the whole store after every
// 64-member chunk would put the O(live) cost right back into the bounded
// pause the chunking exists to avoid.
func (en *Engine) finishDrop(n int, compact bool) {
	if n > 0 {
		en.stats.DroppedPMs += uint64(n)
		en.dropEpoch++
		if compact {
			en.compactIfDirty()
		}
	}
}

// CellCount is the live population of one (state, class, slice) cell.
type CellCount struct {
	State, Class, Slice int
	Count               int
}

// CellCursor is a resumable position in a chunked ClassCellCounts walk:
// the (state, class) bucket being binned, the next entry index inside
// it, and the in-progress bucket's partial per-slice tallies. The zero
// value starts a fresh walk; Reset reuses the tally storage. If the
// bucket compacts between chunks (the engine's class-index valve can run
// from Process) the saved entry index can skip or double-count a few
// entries — tolerable for a population snapshot that is already going
// stale while the planner runs, and impossible in the one-shot walk.
type CellCursor struct {
	state, class, entry int
	counts              []int
	live                int
}

// Reset rewinds the cursor to the start of the walk.
func (cur *CellCursor) Reset() {
	cur.state, cur.class, cur.entry, cur.live = 0, 0, 0, 0
}

// ClassCellCounts bins the live matches of every class bucket into
// slices via sliceOf and appends the non-empty cells to buf, returned in
// ascending (state, class, slice) order — the deterministic item order
// shedding-set selection consumes. The walk reads two fields per live
// match and no model state. sliceOf results are clamped to [0, nSlices).
func (en *Engine) ClassCellCounts(nSlices int, sliceOf func(startTime event.Time, startSeq uint64) int, buf []CellCount) []CellCount {
	var cur CellCursor
	out, _ := en.ClassCellCountsChunk(nSlices, sliceOf, buf, &cur, -1)
	return out
}

// ClassCellCountsChunk is ClassCellCounts with an examination budget:
// it touches at most budget bucket entries (live or stale), appends the
// cells of every bucket it finished to buf, and reports done=false with
// the position saved in cur when the budget runs out. The async planner
// accumulates its population snapshot this way, one bounded chunk per
// Control call, so snapshotting a large store never pauses the worker
// for the whole O(live) walk. budget < 0 means unbounded (one-shot).
// Each bucket's first visit may lazily compact it (same valve as the
// drop walk) — a mostly-dead bucket would otherwise make every snapshot
// walk its corpses.
func (en *Engine) ClassCellCountsChunk(nSlices int, sliceOf func(startTime event.Time, startSeq uint64) int, buf []CellCount, cur *CellCursor, budget int) ([]CellCount, bool) {
	if nSlices <= 0 {
		nSlices = 1
	}
	if len(cur.counts) != nSlices {
		cur.counts = make([]int, nSlices)
	}
	examined := 0
	for cur.state < len(en.classes.byState) {
		row := en.classes.byState[cur.state]
		if cur.class >= len(row) {
			cur.state++
			cur.class, cur.entry = 0, 0
			continue
		}
		b := row[cur.class]
		if b == nil || (cur.entry == 0 && len(b.entries) == b.dead) {
			cur.class++
			cur.entry = 0
			continue
		}
		if cur.entry == 0 {
			// Same budget-charged compaction valve as the drop walk: a
			// bucket too dirty-and-large to sweep within the remaining
			// budget is binned as-is (dead entries cost one budget unit
			// each) and left for the Process-side valve.
			if b.dead > 32 && b.dead*2 > len(b.entries) &&
				(budget < 0 || len(b.entries) <= budget-examined) {
				examined += len(b.entries)
				en.compactClassBucket(b)
				if len(b.entries) == 0 {
					cur.class++
					continue
				}
			}
			for i := range cur.counts {
				cur.counts[i] = 0
			}
			cur.live = 0
		}
		ents := b.entries
		for cur.entry < len(ents) {
			if budget >= 0 && examined >= budget {
				return buf, false
			}
			ent := &ents[cur.entry]
			cur.entry++
			examined++
			pm := ent.pm
			if pm.gen != ent.gen || pm.dead {
				continue
			}
			sl := sliceOf(pm.startTime, pm.startSeq)
			if sl < 0 {
				sl = 0
			} else if sl >= nSlices {
				sl = nSlices - 1
			}
			cur.counts[sl]++
			cur.live++
		}
		if cur.live > 0 {
			for sl, cnt := range cur.counts {
				if cnt > 0 {
					buf = append(buf, CellCount{State: cur.state, Class: cur.class, Slice: sl, Count: cnt})
				}
			}
		}
		cur.class++
		cur.entry = 0
	}
	return buf, true
}

// ClassIndexStats is the occupancy of the class-bucketed index.
type ClassIndexStats struct {
	Buckets int // allocated (state, class) buckets
	Live    int // live entries across buckets
	Dead    int // dead entries awaiting compaction
}

// ClassIndexStats reports bucket-index occupancy (exported on /stats and
// /metrics; also the cheap way for tests to assert index consistency).
func (en *Engine) ClassIndexStats() ClassIndexStats {
	st := ClassIndexStats{Buckets: en.classes.buckets}
	for _, row := range en.classes.byState {
		for _, b := range row {
			if b == nil {
				continue
			}
			st.Live += len(b.entries) - b.dead
			st.Dead += b.dead
		}
	}
	return st
}
