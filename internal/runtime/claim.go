package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/event"
)

// Queue order. Every send on a shard channel — a producer's batch or a
// control message — first takes a ticket from the shard and is made
// only once every earlier ticket's send has been. A caller that must
// keep some other order in step with the queues (the input log, whose
// order replay trusts to be each shard's queue order) takes the tickets
// under the lock that orders that other thing, then releases it and
// sends; a full queue then blocks the producers behind it on that
// shard, not everyone behind that lock. Tickets are taken for a whole
// batch at once under claimMu (a Claim), so any two claims meet every
// shard they share in the same order and the earliest unfinished claim
// always holds its shards' turns: waiting on turns cannot deadlock.

// queueOrder is one shard's ticket state.
type queueOrder struct {
	next   atomic.Uint64 // tickets issued
	unsent atomic.Int64  // events of issued tickets not yet sent
	mu     sync.Mutex
	turn   uint64 // tickets whose send is done, under mu
	cond   sync.Cond
}

// take issues a ticket for n events.
func (q *queueOrder) take(n int) uint64 {
	q.unsent.Add(int64(n))
	return q.next.Add(1) - 1
}

// await blocks until ticket t has the turn.
func (q *queueOrder) await(t uint64) {
	q.mu.Lock()
	for q.turn != t {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// pass ends the current turn after a ticket's send of n events.
func (q *queueOrder) pass(n int) {
	q.unsent.Add(int64(-n))
	q.mu.Lock()
	q.turn++
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Claim is a batch of admitted events split by target shard, each part
// holding its place in its shard's queue order (see Runtime.Claim). The
// zero value is ready to use; a reused Claim keeps its capacity.
type Claim struct {
	parts    []claimPart
	rejected int
}

type claimPart struct {
	sh     *shard
	b      batch
	n      int
	ticket uint64
}

// split groups events by target shard — slots[i], or the shard the
// event's key hashes to when slots is nil or slots[i] < 0 — into parts,
// reusing its capacity. Every target must have passed the door (Gate);
// a closed runtime rejects them all. It returns slices rather than
// filling a Claim so that a caller's stack array can back them.
func (r *Runtime) split(parts []claimPart, events []*event.Event, slots []int, enq time.Time) (_ []claimPart, rejected int) {
	parts = parts[:0]
	if r.closed.Load() {
		return parts, len(events)
	}
	if len(events) == 1 {
		e := events[0]
		return append(parts, claimPart{sh: r.shardFor(slotOf(slots, 0), e), b: batch{one: item{e: e, enq: enq}}, n: 1}), 0
	}
	var fixed [16]int32 // part index + 1 per shard, on the stack for up to 16 shards
	at := fixed[:min(len(r.shards), len(fixed))]
	if len(r.shards) > len(fixed) {
		at = make([]int32, len(r.shards))
	}
	for i, e := range events {
		sh := r.shardFor(slotOf(slots, i), e)
		p := at[sh.id]
		if p == 0 {
			parts = append(parts, claimPart{sh: sh, b: batch{items: getItems()}})
			p = int32(len(parts))
			at[sh.id] = p
		}
		part := &parts[p-1]
		*part.b.items = append(*part.b.items, item{e: e, enq: enq})
		part.n++
	}
	return parts, 0
}

// slotOf is event i's target in split's slots: < 0 for its key's shard.
func slotOf(slots []int, i int) int {
	if slots == nil {
		return -1
	}
	return slots[i]
}

// Claim splits events that passed the door by target shard (slots as
// in Gate.Admits, parallel to events; nil: each by its key) and takes
// each part's place in its shard's queue order. Deliver sends them. A
// caller claims under whatever lock orders its own records of the
// events, and delivers after releasing it.
func (r *Runtime) Claim(c *Claim, events []*event.Event, slots []int) {
	c.parts, c.rejected = r.split(c.parts, events, slots, time.Now())
	r.claim(c.parts)
}

// claim takes the tickets of split parts.
func (r *Runtime) claim(parts []claimPart) {
	r.claimMu.Lock()
	for i := range parts {
		p := &parts[i]
		p.ticket = p.sh.order.take(p.n)
	}
	r.claimMu.Unlock()
}

// Deliver sends c's parts, each in its turn, blocking while a target
// queue is full (the backpressure signal), and returns how many events
// were accepted; after Close it refuses them. Refusals count in
// Snapshot.AdmissionRejected.
func (r *Runtime) Deliver(c *Claim) int {
	n := r.deliver(c.parts, c.rejected)
	c.parts, c.rejected = c.parts[:0], 0
	return n
}

func (r *Runtime) deliver(parts []claimPart, rejected int) (accepted int) {
	for i := range parts {
		p := &parts[i]
		p.sh.order.await(p.ticket)
		if r.send(p.sh, p.b, p.n) {
			accepted += p.n
		} else {
			rejected += p.n
		}
		p.sh.order.pass(p.n)
		*p = claimPart{}
	}
	r.admissionRejected.Add(uint64(rejected))
	return accepted
}

// send queues one batch on sh (blocking while the queue is full) unless
// the runtime has closed. The caller holds sh's turn.
func (r *Runtime) send(sh *shard, b batch, n int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed.Load() {
		if b.items != nil {
			putItems(b.items)
		}
		return false
	}
	sh.depth.Add(int64(n))
	sh.ch <- b
	r.pool.wakeOne()
	return true
}
