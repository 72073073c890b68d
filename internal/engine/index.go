package engine

import (
	"math"

	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/vclock"
)

// This file implements the type- and key-indexed partial-match store and
// the start-ordered expiry ring. Both rest on one structural invariant of
// the engine: a registered partial match is immutable except for its
// dead flag (extension always branches), so the set of event types it
// can react to, the value its leading equi-join compares the event
// against, and its window-start coordinates are fixed at registration
// time.

// Reaction flags: what a partial match does when an event of the
// indexed type arrives.
const (
	reactGuard   uint8 = 1 << iota // eager negation guard at the next state
	reactTake                      // Kleene take at the current state
	reactProceed                   // bind the next state
)

// indexEntry is one bucket slot. gen snapshots the match's recycle
// generation so entries pointing at a reused object are skipped. next
// links the entries of one chain — the unkeyed entries, or those of one
// join-key value — in registration order (-1 at the tail); key is the
// typeBucket.keys slot of the entry's chain, -1 for the unkeyed one.
type indexEntry struct {
	pm    *PartialMatch
	gen   uint32
	next  int32
	key   int32
	flags uint8
}

func (ent *indexEntry) live() bool { return ent.pm.gen == ent.gen && !ent.pm.dead }

// chain is a linked list threaded through typeBucket.entries.
type chain struct{ head, tail int32 }

var emptyChain = chain{head: -1, tail: -1}

// keyChain is the chain of one join-key value. units is the number of
// predicate evaluations the exhaustive scan spends on its live entries
// for an event of another key: one per flagged reaction.
type keyChain struct {
	chain
	val   joinVal
	units int
	live  int
}

// typeBucket holds, in registration order, every live match that can
// react to one event type; dead counts entries whose match has died
// (compacted lazily). A match all of whose reactions to the type lead
// with an equi-join on the event's attr and the same bound value
// (nfa.JoinKey) is chained under that value, and an event walks only the
// chain of its own attr value, merged with the unkeyed chain. The rest —
// no leading equi-join, reactions that disagree, or a bound value that
// is not there — are on the unkeyed chain, which every event of the type
// walks. Key values arrive from outside the program: compaction unlinks
// the chains it empties, so keys, num and str hold O(live matches)
// values, not one per value ever seen.
type typeBucket struct {
	entries []indexEntry
	dead    int
	unkeyed chain

	attr      string     // event attribute keyed entries join on, "" if none can
	keys      []keyChain // slots; num and str map a value to its slot
	freeKeys  []int32
	num       map[uint64]int32
	str       map[string]int32
	units     int // Σ keyChain.units
	keyedLive int // Σ keyChain.live
}

// joinVal is the canonical form of a join-key value: two values whose
// joinVals differ are never event.Value.Equal, so a key lookup can only
// skip matches the equi-join would have rejected. The converse does not
// hold (ints beyond 2^53 share a float), which is fine: the visited
// match still evaluates the predicate itself. The zero joinVal means "no
// key": absent, or NaN (equal to nothing).
type joinVal struct {
	kind event.Kind // KindNone, KindFloat (any numeric), or KindString
	num  uint64
	str  string
}

func canonical(v event.Value) joinVal {
	switch v.Kind {
	case event.KindInt, event.KindFloat:
		f := v.AsFloat()
		if f != f {
			return joinVal{}
		}
		if f == 0 {
			return joinVal{kind: event.KindFloat} // -0 = +0
		}
		return joinVal{kind: event.KindFloat, num: math.Float64bits(f)}
	case event.KindString:
		return joinVal{kind: event.KindString, str: v.S}
	}
	return joinVal{}
}

// boundKey evaluates the bound side of a JoinKey against a match.
func boundKey(pm *PartialMatch, k *nfa.JoinKey) joinVal {
	if k == nil {
		return joinVal{}
	}
	var e *event.Event
	if k.Rep == nfa.RepSingle {
		e = pm.singles[k.State]
	} else if reps := pm.kleene[k.State]; len(reps) > 0 {
		e = reps[0]
		if k.Rep == nfa.RepLast {
			e = reps[len(reps)-1]
		}
	}
	if e == nil {
		return joinVal{}
	}
	return canonical(e.Attrs[k.BoundAttr])
}

// slot returns the keys slot of value v, or -1 if v has no chain.
func (b *typeBucket) slot(v joinVal) int32 {
	var k int32
	var ok bool
	if v.kind == event.KindString {
		k, ok = b.str[v.str]
	} else {
		k, ok = b.num[v.num]
	}
	if !ok {
		return -1
	}
	return k
}

// addSlot starts an empty chain for value v.
func (b *typeBucket) addSlot(v joinVal) int32 {
	var k int32
	if n := len(b.freeKeys); n > 0 {
		k, b.freeKeys = b.freeKeys[n-1], b.freeKeys[:n-1]
	} else {
		k = int32(len(b.keys))
		b.keys = append(b.keys, keyChain{})
	}
	b.keys[k] = keyChain{chain: emptyChain, val: v}
	if v.kind == event.KindString {
		if b.str == nil {
			b.str = make(map[string]int32)
		}
		b.str[v.str] = k
	} else {
		if b.num == nil {
			b.num = make(map[uint64]int32)
		}
		b.num[v.num] = k
	}
	return k
}

// link appends entry i to chain c.
func (b *typeBucket) link(c *chain, i int32) {
	if c.tail >= 0 {
		b.entries[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

// reaction is one way a match resting in a state responds to an event
// type: the type's bucket (created at New, so a bucket pointer stands for
// its type) and the reaction's join key.
type reaction struct {
	b   *typeBucket
	key *nfa.JoinKey
}

// stateReact is the per-state reaction descriptor computed at New. The
// dynamic parts (repetition count vs Min/MaxReps, the key's value) are
// evaluated per match at registration.
type stateReact struct {
	take    reaction // b non-nil iff the state is Kleene
	minReps int
	maxReps int

	proceed reaction   // into the next state (b nil at the final state)
	guards  []reaction // eager guards of the gap to the next state
}

// typeFlag pairs a type bucket with merged reaction flags, the number of
// reactions merged (units) and the value they are keyed on.
type typeFlag struct {
	b     *typeBucket
	key   joinVal
	units int
	f     uint8
}

// reactionsOf appends the reactions of match pm, deduplicated by type, to
// buf. Callers pass a stack array: typeFlag is mostly pointers, and
// filling an engine-owned (heap) buffer on every register and death
// paid a GC write barrier per field.
func (en *Engine) reactionsOf(pm *PartialMatch, buf []typeFlag) []typeFlag {
	d := &en.reacts[pm.cur]
	if !en.DeferredNegation {
		for _, g := range d.guards {
			buf = addReaction(buf, pm, g, reactGuard)
		}
	}
	if d.take.b != nil && (d.maxReps == 0 || len(pm.kleene[pm.cur]) < d.maxReps) {
		buf = addReaction(buf, pm, d.take, reactTake)
	}
	if d.proceed.b != nil && (d.take.b == nil || len(pm.kleene[pm.cur]) >= d.minReps) {
		buf = addReaction(buf, pm, d.proceed, reactProceed)
	}
	return buf
}

// addReaction merges one reaction into buf. The merged entry stays keyed
// only while every reaction to the type carries the same key value.
func addReaction(buf []typeFlag, pm *PartialMatch, r reaction, f uint8) []typeFlag {
	key := boundKey(pm, r.key)
	for i := range buf {
		if tf := &buf[i]; tf.b == r.b {
			tf.f |= f
			tf.units++
			if tf.key != key {
				tf.key = joinVal{}
			}
			return buf
		}
	}
	// Field by field into the slot: composing the struct first makes the
	// copy read back what narrower stores just wrote, which stalls.
	buf = append(buf, typeFlag{})
	tf := &buf[len(buf)-1]
	tf.b, tf.key, tf.units, tf.f = r.b, key, 1, f
	return buf
}

// indexPM adds a freshly registered match to the buckets of every type
// it reacts to. Bucket order is registration order, and reactBucket
// merges the two chains it walks by bucket position, which preserves the
// exhaustive scan's reaction (and therefore match emission) order.
func (en *Engine) indexPM(pm *PartialMatch) {
	var buf [4]typeFlag
	rs := en.reactionsOf(pm, buf[:0])
	for i := range rs {
		tf := &rs[i]
		b := tf.b
		at := int32(len(b.entries))
		ent := indexEntry{pm: pm, gen: pm.gen, next: -1, key: -1, flags: tf.f}
		c := &b.unkeyed
		if tf.key.kind != event.KindNone {
			k := b.slot(tf.key)
			if k < 0 {
				k = b.addSlot(tf.key)
			}
			kc := &b.keys[k]
			kc.units += tf.units
			kc.live++
			b.units += tf.units
			b.keyedLive++
			ent.key = k
			c = &kc.chain
		}
		b.entries = append(b.entries, ent)
		b.link(c, at)
	}
}

// noteDead records a match's death for lazy cleanup: live counter, sweep
// counters, and the dead tallies and charge units of every bucket
// holding it.
func (en *Engine) noteDead(pm *PartialMatch) {
	en.live--
	en.deadPMs++
	// Before the witness early return: every match is in exactly one
	// class bucket, witnesses included.
	en.noteDeadClass(pm)
	if pm.witnessOf != nil {
		en.deadWitnesses++
		return
	}
	var buf [4]typeFlag
	rs := en.reactionsOf(pm, buf[:0])
	for i := range rs {
		tf := &rs[i]
		b := tf.b
		b.dead++
		en.indexDead++
		if tf.key.kind == event.KindNone {
			continue
		}
		if k := b.slot(tf.key); k >= 0 {
			kc := &b.keys[k]
			kc.units -= tf.units
			kc.live--
			b.units -= tf.units
			b.keyedLive--
		}
	}
}

// compactBucket drops dead and stale entries in place, relinks the
// chains over the survivors and unlinks the key values left without any.
func (en *Engine) compactBucket(b *typeBucket) {
	b.unkeyed = emptyChain
	for k := range b.keys {
		b.keys[k].chain = emptyChain
	}
	old := b.entries
	b.entries = old[:0]
	for _, ent := range old {
		if !ent.live() {
			continue
		}
		at := int32(len(b.entries))
		ent.next = -1
		b.entries = append(b.entries, ent)
		if ent.key < 0 {
			b.link(&b.unkeyed, at)
		} else {
			b.link(&b.keys[ent.key].chain, at)
		}
	}
	clear(old[len(b.entries):])
	for k := range b.keys {
		kc := &b.keys[k]
		if kc.head >= 0 || kc.val.kind == event.KindNone {
			continue // in use, or already on the free list
		}
		if kc.val.kind == event.KindString {
			delete(b.str, kc.val.str)
		} else {
			delete(b.num, kc.val.num)
		}
		kc.val = joinVal{}
		b.freeKeys = append(b.freeKeys, int32(k))
	}
	en.indexDead -= b.dead
	b.dead = 0
}

// reset empties the bucket (Flush), keeping its storage.
func (b *typeBucket) reset() {
	clear(b.entries)
	clear(b.keys)
	clear(b.num)
	clear(b.str)
	*b = typeBucket{
		entries: b.entries[:0], unkeyed: emptyChain, attr: b.attr,
		keys: b.keys[:0], freeKeys: b.freeKeys[:0], num: b.num, str: b.str,
	}
}

// IndexStats is the physical work of the type/key index: Visited counts
// the entries events walked (and ran predicates against), Pruned the
// live keyed entries they skipped because the join key differed.
// Visited/(Visited+Pruned) is the share of attempts that could succeed.
type IndexStats struct {
	Visited uint64
	Pruned  uint64
}

// IndexStats returns the index work counters.
func (en *Engine) IndexStats() IndexStats {
	return IndexStats{Visited: en.indexVisited, Pruned: en.indexPruned}
}

// startGroup collects every match (and witness) whose run started at one
// stream position. Window expiry — by duration or by count — is a
// monotone predicate of (startTime, startSeq), and groups are created in
// stream order, so the ring expires strictly from the front.
type startGroup struct {
	startTime event.Time
	startSeq  uint64
	members   []groupMember
	// inline backs members for the common small group, so a start group
	// is one allocation.
	inline [4]groupMember
}

type groupMember struct {
	pm  *PartialMatch
	gen uint32
}

// expiryRing is a deque of start groups ordered by stream position.
type expiryRing struct {
	groups []*startGroup
	head   int
}

func (r *expiryRing) front() *startGroup {
	if r.head < len(r.groups) {
		return r.groups[r.head]
	}
	return nil
}

func (r *expiryRing) back() *startGroup {
	if r.head < len(r.groups) {
		return r.groups[len(r.groups)-1]
	}
	return nil
}

func (r *expiryRing) push(g *startGroup) { r.groups = append(r.groups, g) }

func (r *expiryRing) pop() {
	r.groups[r.head] = nil
	r.head++
	if r.head > 64 && r.head*2 >= len(r.groups) {
		n := copy(r.groups, r.groups[r.head:])
		for i := n; i < len(r.groups); i++ {
			r.groups[i] = nil
		}
		r.groups = r.groups[:n]
		r.head = 0
	}
}

func (r *expiryRing) reset() {
	r.groups = r.groups[:0]
	r.head = 0
}

// groupFor returns the ring group for runs starting at e, reusing the
// back group when e is the same stream position (several witnesses and a
// run can start on one event).
func (en *Engine) groupFor(e *event.Event) *startGroup {
	if g := en.ring.back(); g != nil && g.startSeq == e.Seq && g.startTime == e.Time {
		return g
	}
	g := en.newGroup()
	g.startTime = e.Time
	g.startSeq = e.Seq
	en.ring.push(g)
	return g
}

func (en *Engine) newGroup() *startGroup {
	if k := len(en.groupPool) - 1; k >= 0 {
		g := en.groupPool[k]
		en.groupPool[k] = nil
		en.groupPool = en.groupPool[:k]
		return g
	}
	g := &startGroup{}
	g.members = g.inline[:0]
	return g
}

func (en *Engine) freeGroup(g *startGroup) {
	for i := range g.members {
		g.members[i] = groupMember{}
	}
	g.members = g.members[:0]
	en.groupPool = append(en.groupPool, g)
}

// expireRing pops expired start groups off the ring front, marking their
// members dead. Because expiry is monotone in ring order, the first
// non-expired group stops the walk — matches still inside their window
// are never touched.
func (en *Engine) expireRing(e *event.Event, w *vclock.Cost) {
	window := en.m.Query.Window
	for {
		g := en.ring.front()
		if g == nil || !expiredAt(window, g.startTime, g.startSeq, e) {
			return
		}
		for _, mb := range g.members {
			pm := mb.pm
			if pm.gen != mb.gen || pm.dead {
				continue
			}
			pm.dead = true
			en.noteDead(pm)
			en.stats.ExpiredPMs++
			*w += en.costs.PerExpiry
		}
		en.ring.pop()
		en.freeGroup(g)
	}
}

func expiredAt(window query.Window, startTime event.Time, startSeq uint64, e *event.Event) bool {
	if window.Duration > 0 && e.Time-startTime > window.Duration {
		return true
	}
	if window.Count > 0 && e.Seq-startSeq >= uint64(window.Count) {
		return true
	}
	return false
}
