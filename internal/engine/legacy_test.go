package engine

import (
	"cepshed/internal/event"
	"cepshed/internal/vclock"
)

// This file keeps the pre-index exhaustive-scan reaction and expiry path
// as an independently written reference implementation. The differential
// tests run randomized streams through Process on one engine and
// processScan on another and require identical matches, stats, and
// virtual work — any divergence between the type index and a full scan
// of the partial-match set is a bug in the index.

// processScan is Process with expiry and reactions done by scanning
// every live partial match. The engine still files matches into the type
// index and the expiry ring as it registers them; this path never reads
// either.
func (en *Engine) processScan(e *event.Event) Result {
	tr := en.types[e.Type]
	res := en.beginEvent()
	en.expireScan(e, &res.Work)
	en.scanReact(e, &res)
	en.endEvent(tr, e, &res)
	return res
}

// expireScan marks every out-of-window match dead by checking each one.
func (en *Engine) expireScan(e *event.Event, w *vclock.Cost) {
	window := en.m.Query.Window
	for _, pm := range en.pms {
		if pm.dead {
			continue
		}
		if expiredAt(window, pm.startTime, pm.startSeq, e) {
			pm.dead = true
			en.noteDead(pm)
			en.stats.ExpiredPMs++
			*w += en.costs.PerExpiry
		}
	}
}

// scanReact walks every partial match present at event arrival and
// re-derives its possible reactions from the automaton, exactly as the
// original engine did. Branches created here are appended past the scan
// bound and not re-visited for this event.
func (en *Engine) scanReact(e *event.Event, res *Result) {
	w := &res.Work
	n := len(en.m.States)
	existing := len(en.pms)
	for i := 0; i < existing; i++ {
		pm := en.pms[i]
		if pm.dead || pm.witnessOf != nil {
			continue
		}
		next := pm.cur + 1

		// Negation guards active while waiting to bind state next
		// (eager mode kills immediately; deferred mode records
		// witnesses instead).
		if next < n && !en.DeferredNegation {
			if en.checkGuards(pm, next, e, w) {
				pm.dead = true
				en.noteDead(pm)
				en.stats.KilledByGuard++
				continue
			}
		}

		// Kleene take at the current state.
		st := &en.m.States[pm.cur]
		if st.Comp.Kleene && e.Type == st.Comp.Type {
			reps := pm.kleene[pm.cur]
			if st.Comp.MaxReps == 0 || len(reps) < st.Comp.MaxReps {
				en.b.pm, en.b.current = pm, e
				if en.evalSet(st.IncrementalC, &en.b, w) {
					branch := en.clonePM(pm)
					branch.kleene[pm.cur] = appendRep(reps, e)
					*w += en.costs.PerExtension
					en.register(branch)
					if en.m.Final(pm.cur) && len(branch.kleene[pm.cur]) >= st.Comp.MinReps {
						en.tryEmit(branch, branch, e, res)
					}
				}
			}
		}

		// Proceed: bind the next state.
		if next < n && e.Type == en.m.States[next].Comp.Type {
			if st.Comp.Kleene && len(pm.kleene[pm.cur]) < st.Comp.MinReps {
				continue // Kleene minimum not reached yet
			}
			en.tryBind(pm, next, e, res)
		}
	}
}
