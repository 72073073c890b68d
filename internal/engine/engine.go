// Package engine is the CEP runtime: it evaluates a compiled query over a
// stream under the exhaustive skip-till-any-match selection policy,
// maintaining the set of partial matches, enforcing the window, and
// accounting the virtual work of every operation. It exposes the partial
// matches for inspection and removal, which is the attachment point for
// state-based load shedding.
//
// The hot path is organized around two auxiliary structures (see
// docs/PERFORMANCE.md): an index mapping each event type — and, where
// the query leads with an equi-join, each join-key value — to the
// partial matches that can react to it, and a start-ordered expiry ring
// that pops whole expired start groups off its front. Physical work per
// event is proportional to the matches that actually react; the virtual
// cost model still charges the paper's PerScan for every live match and
// one PerPredicate for every equi-join the index skipped, so shedding
// economics are unchanged.
package engine

import (
	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/vclock"
)

// Engine evaluates one query.
type Engine struct {
	m     *nfa.Machine
	costs Costs

	pms       []*PartialMatch
	witnesses []*PartialMatch
	nextID    uint64

	// OnCreate, if set, is called for every newly created partial match
	// (the cost model classifies matches here, §V-B). Setting it also
	// disables partial-match recycling, because OnCreate consumers retain
	// match pointers across events.
	OnCreate func(*PartialMatch)

	// DeferredNegation switches negation handling from eager guard kills
	// to witness state: events of a negated type are stored as
	// zero-contribution witness entries among the partial matches and
	// checked only when a match completes. Witnesses are shed-eligible,
	// so state-based shedding can fabricate matches — the false-positive
	// mechanism the paper's non-monotonicity experiment measures (§VI-H).
	// Must be set before the first Process call.
	DeferredNegation bool

	stats Stats

	// live is len(pms) minus dead-but-unswept entries. deadPMs and
	// deadWitnesses gate the compaction sweeps.
	live          int
	deadPMs       int
	deadWitnesses int

	index     map[string]*typeBucket
	indexDead int // dead entries across all buckets
	ring      expiryRing
	groupPool []*startGroup

	// indexVisited/indexPruned count the index entries reactBucket walked
	// and the ones the key index let it skip (IndexStats). Kept out of
	// Stats: they describe physical work, which the differential suite's
	// scan oracle does differently.
	indexVisited uint64
	indexPruned  uint64

	// classes is the class-bucketed partial-match index (classindex.go):
	// shedding's view of the store, witnesses included. dropEpoch fences
	// async shed plans against populations that no longer exist.
	classes   classIndex
	dropEpoch uint64

	reacts []stateReact

	// types is the per-event-type dispatch table, complete at New: a type
	// no state reacts to, no guard negates and no run starts on is absent,
	// and reads back as the zero typeRes.
	types map[string]typeRes

	// snapRef is the at-most-one in-flight by-reference snapshot capture
	// (snapref.go); its pms stay pinned against recycling until Release.
	snapRef *SnapshotRef

	// pendingRecycle holds the releases a finished capture parked
	// (snapref.go): a long encode window on a dense stream parks
	// thousands of matches, so Release hands them here and Process
	// drains a bounded number per call instead of replaying them all in
	// one serving-thread pause. Drained only while no capture is in
	// flight; stale entries (recycled early by a cascade, possibly even
	// reused since) are detected by the pooled/dead flags and skipped.
	pendingRecycle []*PartialMatch

	alloc pmAlloc
	pool  bool // recycling enabled (sticky-disabled once OnCreate is seen)

	// Scratch bindings reused across predicate evaluations so passing
	// them through the query.Binding interface never heap-allocates.
	b  binding
	pb provisionalBinding
}

// typeRes is what Process needs to know about one event type: the
// bucket of partial matches reacting to it, the negation guards it is a
// deferred witness for, and whether it starts a new run.
type typeRes struct {
	bucket  *typeBucket
	spots   []witnessSpot
	isStart bool
}

// witnessSpot locates one negation guard for deferred-witness creation.
type witnessSpot struct {
	state int
	guard *nfa.Guard
}

// Stats aggregates engine counters.
type Stats struct {
	Events        uint64 // events processed (not shed)
	CreatedPMs    uint64
	ExpiredPMs    uint64
	KilledByGuard uint64
	DroppedPMs    uint64 // removed by state-based shedding
	Matches       uint64
	PredEvals     uint64
}

// New builds an engine for a compiled machine.
func New(m *nfa.Machine, costs Costs) *Engine {
	en := &Engine{m: m, costs: costs, pool: true}
	en.alloc.init(len(m.States))
	en.index = make(map[string]*typeBucket, 8)
	en.classes.byState = make([][]*classBucket, len(m.States))
	en.reacts = make([]stateReact, len(m.States))
	// One bucket per event type some state reacts to, created up front: a
	// bucket pointer is stable for the engine's lifetime, and a type
	// without one never gets one.
	reactionTo := func(typ string, k *nfa.JoinKey) reaction {
		b := en.index[typ]
		if b == nil {
			b = &typeBucket{unkeyed: emptyChain}
			en.index[typ] = b
		}
		if k != nil {
			b.attr = k.EventAttr // one per type (nfa.assignJoinKeys)
		}
		return reaction{b: b, key: k}
	}
	n := len(m.States)
	for s := range m.States {
		st := &m.States[s]
		d := &en.reacts[s]
		if st.Comp.Kleene {
			d.take = reactionTo(st.Comp.Type, st.TakeKey)
			d.minReps = st.Comp.MinReps
			d.maxReps = st.Comp.MaxReps
		}
		if s+1 < n {
			nx := &m.States[s+1]
			d.proceed = reactionTo(nx.Comp.Type, nx.EnterKey)
			for gi := range nx.Guards {
				d.guards = append(d.guards, reactionTo(nx.Guards[gi].Comp.Type, nx.Guards[gi].Key))
			}
		}
	}
	en.types = make(map[string]typeRes, len(en.index)+1)
	for typ, b := range en.index {
		en.types[typ] = typeRes{bucket: b}
	}
	for s := range m.States {
		for gi := range m.States[s].Guards {
			g := &m.States[s].Guards[gi]
			tr := en.types[g.Comp.Type]
			tr.spots = append(tr.spots, witnessSpot{state: s, guard: g})
			en.types[g.Comp.Type] = tr
		}
	}
	tr := en.types[m.States[0].Comp.Type]
	tr.isStart = true
	en.types[m.States[0].Comp.Type] = tr
	return en
}

// Machine returns the compiled automaton.
func (en *Engine) Machine() *nfa.Machine { return en.m }

// Stats returns a copy of the engine counters.
func (en *Engine) Stats() Stats { return en.stats }

// LiveCount returns the number of live partial matches.
func (en *Engine) LiveCount() int { return len(en.pms) }

// PartialMatches returns the live partial matches. The slice is owned by
// the engine; callers must not retain it — or the matches it points to —
// across Process calls unless OnCreate is set (which disables match
// recycling).
func (en *Engine) PartialMatches() []*PartialMatch { return en.pms }

// Result reports the outcome of processing one event.
type Result struct {
	// Work is the virtual cost incurred.
	Work vclock.Cost
	// Matches are the complete matches detected by this event.
	Matches []Match
}

// Process evaluates the next stream event. Events must be fed in
// non-decreasing time (and sequence) order.
func (en *Engine) Process(e *event.Event) Result {
	tr := en.types[e.Type]
	res := en.beginEvent()

	// Window expiry first: pop expired start groups off the ring front.
	en.expireRing(e, &res.Work)

	// Reactions: guards, Kleene takes, and proceeds — only for matches
	// that can respond to e.Type. Branches created here are appended to
	// buckets and not re-scanned for this event.
	if b := tr.bucket; b != nil {
		en.reactBucket(b, e, &res)
	}

	en.endEvent(tr, e, &res)
	return res
}

// beginEvent is Process's prologue: the event count and the charges
// that do not depend on how expiry and reactions are carried out.
func (en *Engine) beginEvent() Result {
	if en.OnCreate != nil {
		en.pool = false
	}
	en.stats.Events++
	// The paper's cost model charges one scan per live partial match per
	// event (the O(|PM|) term shedding exists to contain). The type index
	// avoids doing that scan physically, so the charge is applied
	// arithmetically over the matches live at event arrival.
	return Result{Work: en.costs.PerEvent + vclock.Cost(len(en.pms))*en.costs.PerScan}
}

// endEvent is Process's epilogue, after expiry and reactions: deferred
// negation witnesses, the run e may start, and compaction.
func (en *Engine) endEvent(tr typeRes, e *event.Event, res *Result) {
	w := &res.Work

	// Deferred negation: store the event as a witness for every guard of
	// its type. Witness entries join the partial-match set.
	if en.DeferredNegation {
		for _, spot := range tr.spots {
			wpm := en.alloc.get()
			wpm.id = en.allocID()
			wpm.m = en.m
			wpm.cur = spot.state
			wpm.startTime = e.Time
			wpm.startSeq = e.Seq
			wpm.witnessOf = spot.guard
			wpm.singles[spot.state] = e
			wpm.group = en.groupFor(e)
			*w += en.costs.PerExtension
			en.witnesses = append(en.witnesses, wpm)
			en.register(wpm)
		}
	}

	// Start a new run if the event can bind state 0.
	first := &en.m.States[0]
	if tr.isStart {
		n := len(en.m.States)
		pm := en.alloc.get()
		pm.id = en.allocID()
		pm.m = en.m
		pm.startTime = e.Time
		pm.startSeq = e.Seq
		ok := false
		if first.Comp.Kleene {
			// First repetition: paired incremental predicates are vacuous,
			// and bind predicates cannot anchor at a Kleene state.
			en.b.pm, en.b.current = pm, e
			ok = en.evalSet(first.IncrementalC, &en.b, w)
			if ok {
				pm.kleene[0] = en.alloc.seedRep(e)
			}
		} else {
			pm.singles[0] = e
			en.b.pm, en.b.current = pm, e
			ok = en.evalSet(first.BindC, &en.b, w)
		}
		if !ok {
			en.freeTemp(pm)
		} else {
			*w += en.costs.PerExtension
			if n == 1 && !first.Comp.Kleene {
				// Single-component pattern completes immediately.
				en.stats.CreatedPMs++
				en.tryEmit(pm, nil, e, res)
				en.freeTemp(pm)
			} else {
				pm.group = en.groupFor(e)
				en.register(pm)
				if n == 1 && first.Comp.Kleene && 1 >= first.Comp.MinReps {
					en.tryEmit(pm, pm, e, res)
				}
			}
		}
	}

	en.compactIfDirty()
	en.drainRecycle()
}

// reactBucket dispatches e to every partial match whose bucket entry
// says it can react, in registration order: the unkeyed chain merged by
// bucket position with the chain of e's join-key value. Keyed entries of
// any other value are not visited. The scan would have run each of their
// flagged reactions up to its leading equi-join and seen it fail (two
// values with different canonical forms are never Equal; an event
// without the attribute fails it with an error), so that is what they
// are charged: one PerPredicate and one PredEvals per reaction, taken
// from the running unit counts before any reaction of this event
// registers a branch. The walk itself only prunes — every visited match
// still evaluates its full conjunctions.
func (en *Engine) reactBucket(b *typeBucket, e *event.Event, res *Result) {
	if b.dead > 32 && b.dead*2 > len(b.entries) {
		en.compactBucket(b)
	}
	// ents is taken before the walk: branches registered by this event
	// land past its end and are not re-scanned. A chain position of -1
	// (tail) or past end (a tail this event linked a branch to) reads as
	// end.
	ents := b.entries
	end := int32(len(ents))
	at := func(i int32) int32 {
		if uint32(i) >= uint32(end) {
			return end
		}
		return i
	}
	i, j := at(b.unkeyed.head), end
	if b.units > 0 {
		units, pruned := b.units, b.keyedLive
		if v := canonical(e.Attrs[b.attr]); v.kind != event.KindNone {
			if k := b.slot(v); k >= 0 {
				kc := &b.keys[k]
				j = at(kc.head)
				units -= kc.units
				pruned -= kc.live
			}
		}
		res.Work += vclock.Cost(units) * en.costs.PerPredicate
		en.stats.PredEvals += uint64(units)
		en.indexPruned += uint64(pruned)
	}
	for i < end || j < end {
		var ent *indexEntry
		if i < j {
			ent = &ents[i]
			i = at(ent.next)
		} else {
			ent = &ents[j]
			j = at(ent.next)
		}
		if !ent.live() {
			continue
		}
		en.indexVisited++
		en.react(ent.pm, ent.flags, e, res)
	}
}

// react applies one match's reactions to e: eager guard kill, Kleene
// take, then proceed — the same per-match order as the exhaustive scan.
func (en *Engine) react(pm *PartialMatch, flags uint8, e *event.Event, res *Result) {
	w := &res.Work
	next := pm.cur + 1
	if flags&reactGuard != 0 && en.checkGuards(pm, next, e, w) {
		pm.dead = true
		en.noteDead(pm)
		en.stats.KilledByGuard++
		return
	}
	if flags&reactTake != 0 {
		st := &en.m.States[pm.cur]
		en.b.pm, en.b.current = pm, e
		if en.evalSet(st.IncrementalC, &en.b, w) {
			branch := en.clonePM(pm)
			branch.kleene[pm.cur] = appendRep(pm.kleene[pm.cur], e)
			*w += en.costs.PerExtension
			en.register(branch)
			if en.m.Final(pm.cur) && len(branch.kleene[pm.cur]) >= st.Comp.MinReps {
				en.tryEmit(branch, branch, e, res)
			}
		}
	}
	if flags&reactProceed != 0 {
		en.tryBind(pm, next, e, res)
	}
}

// checkGuards reports whether e violates a negation guard of state next.
func (en *Engine) checkGuards(pm *PartialMatch, next int, e *event.Event, w *vclock.Cost) bool {
	for gi := range en.m.States[next].Guards {
		g := &en.m.States[next].Guards[gi]
		if g.Comp.Type != e.Type {
			continue
		}
		en.b.pm, en.b.current = pm, e
		if en.evalSet(g.PredsC, &en.b, w) {
			return true
		}
	}
	return false
}

// tryBind attempts to bind e at state next of pm, branching on success.
func (en *Engine) tryBind(pm *PartialMatch, next int, e *event.Event, res *Result) {
	st := &en.m.States[next]
	w := &res.Work
	if st.Comp.Kleene {
		// First Kleene repetition of state next: incremental predicates
		// pairing [i+1] with [i] are vacuous, lone [i] ones see e.
		en.b.pm, en.b.current = pm, e
		if !en.evalSet(st.IncrementalC, &en.b, w) {
			return
		}
		branch := en.clonePM(pm)
		branch.cur = next
		branch.kleene[next] = en.alloc.seedRep(e)
		*w += en.costs.PerExtension
		en.register(branch)
		if en.m.Final(next) && 1 >= st.Comp.MinReps {
			en.tryEmit(branch, branch, e, res)
		}
		return
	}
	en.pb.binding.pm, en.pb.binding.current = pm, e
	en.pb.state, en.pb.cand = next, e
	if !en.evalSet(st.BindC, &en.pb, w) {
		return
	}
	if en.m.Final(next) {
		// Completing a non-Kleene final state emits without keeping a run;
		// the match derives from the extended run pm.
		branch := en.clonePM(pm)
		branch.cur = next
		branch.singles[next] = e
		en.stats.CreatedPMs++
		en.tryEmit(branch, pm, e, res)
		en.freeTemp(branch)
		return
	}
	branch := en.clonePM(pm)
	branch.cur = next
	branch.singles[next] = e
	*w += en.costs.PerExtension
	en.register(branch)
}

// tryEmit evaluates completion predicates and emits a match. source is
// the registered partial match the completion derives from (nil for
// single-event matches); emitting pins it against recycling because it
// escapes in Match.Source.
func (en *Engine) tryEmit(pm *PartialMatch, source *PartialMatch, e *event.Event, res *Result) {
	en.b.pm, en.b.current = pm, nil
	if !en.evalSet(en.m.CompletionC, &en.b, &res.Work) {
		return
	}
	if en.DeferredNegation && en.violatedByWitness(pm, &res.Work) {
		en.stats.KilledByGuard++
		return
	}
	events := pm.Events()
	res.Work += vclock.Cost(len(events)) * en.costs.PerMatchEvent
	if source != nil {
		source.pinned = true
	}
	res.Matches = append(res.Matches, Match{Events: events, Detected: e.Time, Source: source})
	en.stats.Matches++
}

// violatedByWitness checks a completing match against the live negation
// witnesses: a witness of guard g falling strictly between the binding of
// g's neighbouring positive states, and satisfying g's predicates,
// invalidates the match. Shed witnesses are gone and cannot invalidate —
// that is the false-positive path.
func (en *Engine) violatedByWitness(pm *PartialMatch, w *vclock.Cost) bool {
	for _, wit := range en.witnesses {
		if wit.dead {
			continue
		}
		*w += en.costs.PerScan
		s := wit.cur // guard attaches to state s: gap is (state s-1, state s)
		tNext := bindTimeAt(pm, s)
		var tPrev event.Time
		if s > 0 {
			tPrev = lastTimeAt(pm, s-1)
		}
		wt := wit.startTime
		if wt <= tPrev || wt >= tNext {
			continue
		}
		en.b.pm, en.b.current = pm, wit.singles[s]
		if en.evalSet(wit.witnessOf.PredsC, &en.b, w) {
			return true
		}
	}
	return false
}

// bindTimeAt returns the time the match bound state s (first Kleene
// repetition for Kleene states).
func bindTimeAt(pm *PartialMatch, s int) event.Time {
	if reps := pm.kleene[s]; len(reps) > 0 {
		return reps[0].Time
	}
	if ev := pm.singles[s]; ev != nil {
		return ev.Time
	}
	return 0
}

// lastTimeAt returns the time of the latest event bound at state s.
func lastTimeAt(pm *PartialMatch, s int) event.Time {
	if reps := pm.kleene[s]; len(reps) > 0 {
		return reps[len(reps)-1].Time
	}
	if ev := pm.singles[s]; ev != nil {
		return ev.Time
	}
	return 0
}

// evalSet evaluates a compiled predicate conjunction; vacuous
// first-repetition checks pass, any other error fails the conjunction.
func (en *Engine) evalSet(preds []query.CompiledPredicate, b query.Binding, w *vclock.Cost) bool {
	for i := range preds {
		*w += en.costs.PerPredicate
		en.stats.PredEvals++
		ok, err := preds[i].Eval(b)
		if err != nil {
			if query.IsVacuous(err) {
				continue
			}
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

func (en *Engine) allocID() uint64 {
	en.nextID++
	return en.nextID
}

func (en *Engine) register(pm *PartialMatch) {
	en.stats.CreatedPMs++
	en.pms = append(en.pms, pm)
	en.live++
	if pm.group != nil {
		pm.group.members = append(pm.group.members, groupMember{pm: pm, gen: pm.gen})
	}
	if pm.witnessOf == nil {
		en.indexPM(pm)
	}
	if en.OnCreate != nil {
		en.pool = false
		en.OnCreate(pm)
	}
	// After OnCreate: the class bucket is keyed by the class OnCreate just
	// assigned.
	en.classIndexPM(pm)
}

// compactIfDirty removes dead partial matches (and witnesses) in place,
// recycling objects nothing references anymore. The sweeps are skipped
// entirely when nothing died since the last compaction.
func (en *Engine) compactIfDirty() {
	if en.deadWitnesses > 0 {
		liveW := en.witnesses[:0]
		for _, wpm := range en.witnesses {
			if !wpm.dead {
				liveW = append(liveW, wpm)
			}
		}
		for i := len(liveW); i < len(en.witnesses); i++ {
			en.witnesses[i] = nil
		}
		en.witnesses = liveW
		en.deadWitnesses = 0
	}
	if en.deadPMs > 0 {
		live := en.pms[:0]
		for _, pm := range en.pms {
			if pm.dead {
				en.tryRelease(pm)
				continue
			}
			live = append(live, pm)
		}
		for i := len(live); i < len(en.pms); i++ {
			en.pms[i] = nil
		}
		en.pms = live
		en.deadPMs = 0
	}
	// Safety valve: buckets for types the stream stopped producing keep
	// dead entries forever otherwise.
	if en.indexDead > 1024 && en.indexDead > 2*en.live {
		for _, b := range en.index {
			if b.dead > 0 {
				en.compactBucket(b)
			}
		}
	}
	if en.classes.dead > 1024 && en.classes.dead > 2*en.live {
		en.compactClassIndex()
	}
}

// DropIf removes every live partial match for which shed returns true
// (state-based shedding, ρS) and returns the number removed along with
// the virtual cost of the removal: one PerScan per live match inspected
// plus one PerDrop per match removed.
func (en *Engine) DropIf(shed func(*PartialMatch) bool) (int, vclock.Cost) {
	n, scanned := 0, 0
	for _, pm := range en.pms {
		if pm.dead {
			continue
		}
		scanned++
		if shed(pm) {
			pm.dead = true
			en.noteDead(pm)
			n++
		}
	}
	if n > 0 {
		en.stats.DroppedPMs += uint64(n)
		en.dropEpoch++
		en.compactIfDirty()
	}
	return n, vclock.Cost(scanned)*en.costs.PerScan + vclock.Cost(n)*en.costs.PerDrop
}

// Flush expires all remaining partial matches (end of stream).
func (en *Engine) Flush() {
	en.stats.ExpiredPMs += uint64(len(en.pms))
	for _, pm := range en.pms {
		if !pm.dead {
			pm.dead = true
		}
	}
	for _, pm := range en.pms {
		en.tryRelease(pm)
	}
	en.pms = nil
	en.witnesses = nil
	en.live, en.deadPMs, en.deadWitnesses = 0, 0, 0
	for _, b := range en.index {
		b.reset()
	}
	en.indexDead = 0
	en.resetClassIndex()
	en.dropEpoch++
	for en.ring.front() != nil {
		g := en.ring.front()
		en.ring.pop()
		en.freeGroup(g)
	}
	en.ring.reset()
}
