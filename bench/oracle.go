package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
)

// reference is the unshed truth for one scored query: match-key hash →
// generator index of the completing event.
type reference map[uint64]uint32

// buildReference runs the stream through engine.Sequential, the
// single-threaded semantics the sharded runtime must reproduce.
func buildReference(sq scoredQuery, events event.Stream) reference {
	ref := make(reference)
	for _, m := range engine.Sequential(sq.machine, engine.DefaultCosts(), events, false) {
		ref[hashKey([]byte(m.Key()))] = uint32(m.Events[len(m.Events)-1].Seq)
	}
	return ref
}

// keySubset names the part of a stream the reference covers: pick of the
// n values lo..lo+n-1 of a partition attribute. Scoring a subset is exact,
// because no match spans two values, and it keeps the single-threaded
// reference inside the run's time budget.
//
// With rotate zero the values are chosen once, by seed. Under shedding
// that would not do: the strategies shed by classes learnt over the very
// attributes the queries join on, and values hash to shards unevenly, so
// recall differs severalfold from one value to the next and a run's recall
// would be that of the values its seed drew. With rotate set the subset
// moves on by pick values every rotate of the drive, so every stretch of
// n/pick rotations scores every value for the same share of the time.
type keySubset struct {
	attr        string
	lo, n, pick int
	rotate      time.Duration
	window      time.Duration // the queries' longest window; needed with rotate
}

// choose selects the fixed subset's values, by seed.
func (ks *keySubset) choose(seed int64) map[int64]bool {
	rng := rand.New(rand.NewSource(seed))
	keys := make(map[int64]bool, ks.pick)
	for _, i := range rng.Perm(ks.n)[:ks.pick] {
		keys[int64(ks.lo+i)] = true
	}
	return keys
}

// covers reports whether the rotating subset holds key at time t.
func (ks *keySubset) covers(key int64, t time.Duration) bool {
	turn := int(t/ks.rotate) * ks.pick
	off := ((int(key)-ks.lo-turn)%ks.n + ks.n) % ks.n
	return off < ks.pick
}

// scope returns which events feed the reference and which matches, named
// by their completing event, are checked against it. A rotating subset
// feeds the reference every event of a value from one window before the
// value's turn begins, so that each match completing inside the turn finds
// all its events.
func (ks *keySubset) scope(seed int64, in *input) (feeds, checked func(i int) bool) {
	if ks.rotate == 0 {
		keys := ks.choose(seed)
		checked = func(i int) bool { return keys[in.events[i].Int(ks.attr)] }
		return checked, checked
	}
	checked = func(i int) bool { return ks.covers(in.events[i].Int(ks.attr), in.due[i]) }
	feeds = func(i int) bool {
		return checked(i) || ks.covers(in.events[i].Int(ks.attr), in.due[i]+ks.window)
	}
	return feeds, checked
}

// restrict keeps the events feeds accepts. Sequence numbers are
// preserved, so match keys from the restricted stream equal those from
// the full one.
func restrict(events event.Stream, feeds func(i int) bool) event.Stream {
	var out event.Stream
	for i, e := range events {
		if feeds(i) {
			out = append(out, e)
		}
	}
	return out
}

// latWindow is the granularity of detect_p50_ms: the median is taken per
// window and the median over windows is reported, so a backlog episode
// moves the few windows it hit and not the run.
const latWindow = 250 * time.Millisecond

// minWindowSamples is the fewest matches a latency window may hold and
// still contribute a median.
const minWindowSamples = 100

// minWindows is the fewest usable latency windows a run may have. Bursty
// workloads complete most of their matches inside bursts and leave the
// windows between them thin; those are skipped.
const minWindows = 8

// sliceScore is what the emitted matches say about one scored slice.
type sliceScore struct {
	truth      int // reference matches completing in the slice
	found      int // of those, emitted
	foundInSLO int // of those, emitted within the SLO
}

// scoreMatches checks the emitted matches against the references, slice
// by slice; bins every scored match's detection latency (due time of the
// completing event → line read, every query) into latency windows; and
// returns the hard failures it saw anywhere in the drive: duplicates and
// matches outside the reference. refs is indexed like the
// collector's query ids; a nil entry is a query that is timed but not
// checked. inScope, when non-nil, limits checking to matches whose
// completing event it accepts (the reference's key subset).
func scoreMatches(recs []matchRec, refs []reference, in *input, start, slo time.Duration, inScope func(i int) bool) ([]sliceScore, [][]time.Duration, []string) {
	scores := make([]sliceScore, in.slices())
	scoredFrom := in.due[in.marks[0]]
	windows := make([][]time.Duration, (in.due[len(in.due)-1]-scoredFrom)/latWindow+1)
	for _, ref := range refs {
		for _, last := range ref {
			// A rotating subset's reference also holds matches that
			// completed during the lead-in to a value's turn.
			if k := in.sliceOf(int(last)); k >= 0 && (inScope == nil || inScope(int(last))) {
				scores[k].truth++
			}
		}
	}
	var problems []string

	// Duplicates: the same (query, key) twice.
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, func(a, b matchRec) int {
		if c := cmp.Compare(a.query, b.query); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	dups := 0
	for i := 1; i < len(sorted); i++ {
		if sorted[i].query == sorted[i-1].query && sorted[i].key == sorted[i-1].key {
			dups++
		}
	}
	if dups > 0 {
		problems = append(problems, fmt.Sprintf("%d duplicate match lines", dups))
	}

	outside, badSeq := 0, 0
	for _, r := range recs {
		if int(r.lastSeq) >= len(in.due) {
			badSeq++
			continue
		}
		lat := r.recv - (start + in.due[r.lastSeq])
		k := in.sliceOf(int(r.lastSeq))
		if k >= 0 {
			w := (in.due[r.lastSeq] - scoredFrom) / latWindow
			windows[w] = append(windows[w], lat)
		}
		ref := refs[r.query]
		if ref == nil || (inScope != nil && !inScope(int(r.lastSeq))) {
			continue
		}
		// Every benchmark query is monotone: shedding can lose matches
		// but never invent one, so precision must be exactly 1.
		if _, ok := ref[r.key]; !ok {
			outside++
			continue
		}
		if k >= 0 {
			scores[k].found++
			if lat <= slo {
				scores[k].foundInSLO++
			}
		}
	}
	if outside > 0 {
		problems = append(problems, fmt.Sprintf("%d emitted matches are not in the reference", outside))
	}
	if badSeq > 0 {
		problems = append(problems, fmt.Sprintf("%d match lines name a seq the generator never sent", badSeq))
	}
	return scores, windows, problems
}
