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

// split groups events by target shard — slot, or by key when slot < 0,
// the next healthy shard when that one has failed — into parts, reusing
// its capacity. Events with no shard (closed runtime, every shard
// failed, or a slot the runtime does not have) count as rejected. It
// returns slices rather than filling a Claim so that a caller's stack
// array can back them.
func (r *Runtime) split(parts []claimPart, slot int, events []*event.Event, enq time.Time) (_ []claimPart, rejected int) {
	parts = parts[:0]
	if slot >= len(r.shards) {
		return parts, len(events)
	}
	closed := r.closed.Load() // a closed door refuses everything
	var fixed [16]int32       // part index + 1 per shard, on the stack for up to 16 shards
	at := fixed[:min(len(r.shards), len(fixed))]
	if len(events) > 1 && len(r.shards) > len(fixed) {
		at = make([]int32, len(r.shards))
	}
	for _, e := range events {
		var sh *shard
		if !closed {
			sh = r.shardFor(slot, e)
		}
		switch {
		case sh == nil:
			rejected++
		case len(events) == 1:
			parts = append(parts, claimPart{sh: sh, b: batch{one: item{e: e, enq: enq}}, n: 1})
		default:
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
	}
	return parts, rejected
}

// Claim splits events that passed Door by target shard (slot < 0: by
// key) and takes each part's place in its shard's queue order. Deliver
// sends them. A caller claims under whatever lock orders its own
// records of the events, and delivers after releasing it.
func (r *Runtime) Claim(c *Claim, slot int, events []*event.Event) {
	enq := time.Now()
	c.parts, c.rejected = r.split(c.parts, slot, events, enq)
	r.claim(c.parts, c.rejected, slot, events)
}

// claim takes the tickets of split parts — logging their events first
// when the runtime owns its input log.
func (r *Runtime) claim(parts []claimPart, rejected, slot int, events []*event.Event) {
	r.claimMu.Lock()
	r.logClaim(parts, rejected, slot, events)
	for i := range parts {
		p := &parts[i]
		p.ticket = p.sh.order.take(p.n)
	}
	r.markRouted(events)
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
	r.wakeOne()
	return true
}

// tryOffer is the non-blocking offer: a part whose shard queue is full,
// or has earlier claims still waiting to send, is dropped and counted as
// overflow (a runtime that owns its log records the drop as a refusal).
// It never waits for a turn, so it holds claimMu throughout.
func (r *Runtime) tryOffer(parts []claimPart, slot int, events []*event.Event, enq time.Time) (accepted int) {
	parts, rejected := r.split(parts, slot, events, enq)
	r.claimMu.Lock()
	defer r.claimMu.Unlock()
	r.logClaim(parts, rejected, slot, events)
	for i := range parts {
		p := &parts[i]
		if r.trySend(p.sh, p.b, p.n) {
			accepted += p.n
		} else {
			p.sh.overflow.Add(uint64(p.n))
			r.refuse(p.b)
			if p.b.items != nil {
				putItems(p.b.items)
			}
		}
		*p = claimPart{}
	}
	r.appendOwnLog() // the refusals
	r.markRouted(events)
	r.admissionRejected.Add(uint64(rejected))
	return accepted
}

// trySend is send without blocking: it fails when sh's queue is full,
// when an earlier claim on sh has not sent yet, or after Close.
func (r *Runtime) trySend(sh *shard, b batch, n int) bool {
	q := &sh.order
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.turn != q.next.Load() {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed.Load() {
		return false
	}
	sh.depth.Add(int64(n))
	select {
	case sh.ch <- b:
		r.wakeOne()
		return true
	default:
		sh.depth.Add(int64(-n))
		return false
	}
}
