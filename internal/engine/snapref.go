package engine

import (
	"runtime"

	"cepshed/internal/event"
)

// This file implements by-reference snapshot capture: the O(live) walk
// over the partial-match store is split into a cheap capture (collect
// live-match pointers) and an Encode that may run on a background
// goroutine while the engine keeps processing events. Snapshot() runs
// the same three steps back to back.
//
// Why this is safe without copying: a registered partial match is
// immutable except for its dead flag and the slab lifecycle fields
// (pooled, gen, children, pinned, deferred) — extension and Kleene
// takes always branch via clonePM, repetition slices are strict
// copy-on-write, events are immutable, and the shedder annotations
// Class/Slice are written in OnCreate before registration. The encoder
// reads none of the mutable fields, so the only hazard is recycling: a
// captured match (or an ancestor on its parent chain) dying mid-encode
// must not hand its memory back to the allocator while the encoder
// reads it. tryRelease therefore parks ALL releases on ref.deferred
// while a capture is in flight, and Release replays them. Capture cost
// is one pointer append per live match — no per-match writes at all —
// which is what keeps the serving thread's snapshot pause flat as
// state grows.
type SnapshotRef struct {
	en     *Engine
	defneg bool
	stats  Stats
	nextID uint64
	// pms are the matches live at capture time; the background encoder
	// reads only their immutable fields.
	pms []*PartialMatch
	// deferred are releases parked by tryRelease while this capture was
	// in flight; Release replays them on the engine's goroutine.
	deferred []*PartialMatch
	released bool
}

// CaptureSnapshot collects the live partial-match store by reference.
// Returns nil if a capture is already in flight (overlapping captures
// would replay each other's deferred releases). Cost is one pointer
// append per live match — the encoding and serialization happen in
// SnapshotRef.Encode, off the hot path.
func (en *Engine) CaptureSnapshot() *SnapshotRef {
	if en.snapRef != nil {
		return nil
	}
	// Process compacts at the end of every call, so between calls en.pms
	// normally holds no dead entries and the capture below is a bare
	// slice copy (a memcpy of pointers). Sweep explicitly if anything
	// died since, so the copy never needs a per-match liveness deref —
	// one cache miss per live match, which is what would otherwise
	// dominate the capture pause on large stores.
	if en.deadPMs > 0 {
		en.compactIfDirty()
	}
	ref := &SnapshotRef{
		en:     en,
		defneg: en.DeferredNegation,
		stats:  en.stats,
		nextID: en.nextID,
		pms:    append(make([]*PartialMatch, 0, len(en.pms)), en.pms...),
	}
	en.snapRef = ref
	return ref
}

// encodeYieldEvery bounds how many matches the background encoder
// serializes between scheduler yields, so that on a single-CPU host a
// large encode cannot monopolize the scheduler and reintroduce the
// pause it exists to remove. 16 keeps the between-yield chunk in the
// tens of microseconds even for matches with wide Kleene windows — the
// chunk IS the max pause the serving path sees on one CPU, so this
// constant is effectively the stall budget; the Gosched overhead this
// buys is noise against serializing 16 matches.
const encodeYieldEvery = 16

// Encode builds the serializable EngineState from the capture. Safe to
// call from a background goroutine while the engine keeps processing:
// it reads only immutable match fields, immutable bindings, and the
// compiled machine, and no captured memory is recycled while the
// capture is live.
func (ref *SnapshotRef) Encode() *EngineState {
	en := ref.en
	st := &EngineState{
		DeferredNegation: ref.defneg,
		Stats:            ref.stats,
		NextID:           ref.nextID,
	}
	idx := make(map[*event.Event]int32)
	evIndex := func(e *event.Event) int32 {
		if i, ok := idx[e]; ok {
			return i
		}
		i := int32(len(st.Events))
		st.Events = append(st.Events, e)
		idx[e] = i
		return i
	}
	n := len(en.m.States)
	for i, pm := range ref.pms {
		if i%encodeYieldEvery == encodeYieldEvery-1 {
			runtime.Gosched()
		}
		ps := PMState{
			ID:           pm.id,
			State:        pm.cur,
			StartTime:    pm.startTime,
			StartSeq:     pm.startSeq,
			Class:        pm.Class,
			Slice:        pm.Slice,
			WitnessGuard: -1,
			Singles:      make([]int32, n),
			Kleene:       make([][]int32, n),
		}
		if p := pm.parent; p != nil {
			ps.ParentID = p.id
		}
		if pm.witnessOf != nil {
			for gi := range en.m.States[pm.cur].Guards {
				if &en.m.States[pm.cur].Guards[gi] == pm.witnessOf {
					ps.WitnessGuard = gi
					break
				}
			}
		}
		for s := 0; s < n; s++ {
			if ev := pm.singles[s]; ev != nil {
				ps.Singles[s] = evIndex(ev)
			} else {
				ps.Singles[s] = -1
			}
			if reps := pm.kleene[s]; len(reps) > 0 {
				rs := make([]int32, len(reps))
				for j, ev := range reps {
					rs[j] = evIndex(ev)
				}
				ps.Kleene[s] = rs
			}
		}
		st.PMs = append(st.PMs, ps)
	}
	return st
}

// Release ends the capture and hands the releases tryRelease parked
// while it was in flight to the engine's incremental recycle queue —
// replaying them inline here would be an O(parked) serving-thread pause
// rivaling the encode the async protocol just moved off the hot path.
// Must run on the engine's owning goroutine between Process calls, and
// only after Encode has finished (the shard waits on the encode
// goroutine's done channel before settling).
func (ref *SnapshotRef) Release() {
	if ref.released {
		return
	}
	ref.released = true
	en := ref.en
	if en.snapRef == ref {
		en.snapRef = nil
	}
	if len(en.pendingRecycle) == 0 {
		en.pendingRecycle = ref.deferred
	} else {
		en.pendingRecycle = append(en.pendingRecycle, ref.deferred...)
	}
	ref.deferred = nil
	ref.pms = nil
}

// recycleDrainBudget bounds how many parked releases drainRecycle
// processes per Process call. 64 cascades cost a few microseconds —
// invisible next to per-event engine work — while draining far faster
// than any realistic snapshot interval parks.
const recycleDrainBudget = 64

// drainRecycle incrementally replays releases parked by past captures.
// Skipped entirely while a capture is in flight: a parked match can be
// an ancestor of a freshly captured one, so recycling mid-encode would
// race the encoder exactly like the park existed to prevent. Stale
// entries are harmless: a cascade may have recycled (pooled) or even
// reused (alive again) a parked match before its queue entry surfaces,
// and tryRelease's dead/pooled guards make both cases no-ops.
func (en *Engine) drainRecycle() {
	q := en.pendingRecycle
	if len(q) == 0 || en.snapRef != nil {
		return
	}
	n := recycleDrainBudget
	if n > len(q) {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		pm := q[len(q)-1]
		q[len(q)-1] = nil
		q = q[:len(q)-1]
		pm.deferred = false
		en.tryRelease(pm)
	}
	en.pendingRecycle = q
	if len(q) == 0 {
		en.pendingRecycle = nil
	}
}
