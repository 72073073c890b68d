package runtime

import (
	"sync"
	"time"

	"cepshed/internal/event"
)

// Shard queues. Each shard's input is a FIFO of batches under its own
// mutex whose push never blocks, so a caller that keeps another order in
// step with the queues (the input log, whose order replay trusts to be
// each shard's queue order) pushes under the lock that orders that other
// thing. Backpressure comes after that lock: a producer that pushed onto
// a queue holding more than QueueLen batches waits, holding no lock,
// until the worker has popped it back down to QueueLen, the runtime
// closes, or the shard fails (Deliver). Control messages are pushed like
// batches and never wait.
type queue struct {
	mu      sync.Mutex
	room    sync.Cond // broadcast when the queue falls back to limit with producers waiting
	buf     []batch   // queued batches from head on
	head    int
	limit   int  // QueueLen
	waiting int  // producers inside awaitRoom
	closed  bool // Close ran: pushes are refused
}

// pop takes the oldest batch; ok is false when the queue is empty, and
// closed then says it will stay so. A pop that brings the queue back to
// its limit wakes the producers waiting for room, if there are any.
func (q *queue) pop() (b batch, ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.buf) {
		return batch{}, false, q.closed
	}
	b, q.buf[q.head] = q.buf[q.head], batch{}
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	if q.waiting > 0 && len(q.buf)-q.head <= q.limit {
		q.room.Broadcast()
	}
	return b, true, false
}

// wake rouses every waiting producer to recheck its condition; shut
// also refuses every later push (the worker still drains the queue).
func (q *queue) wake(shut bool) {
	q.mu.Lock()
	q.closed = q.closed || shut
	q.room.Broadcast()
	q.mu.Unlock()
}

// push queues b, n events (1 for a control message), on s unless its
// queue has closed, and reports whether it did and whether the queue now
// holds more than QueueLen batches: the producer then owes awaitRoom.
// The events count in depth from the push until processed.
func (s *shard) push(b batch, n int) (ok, full bool) {
	q := &s.q
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		if b.items != nil {
			putItems(b.items)
		}
		return false, false
	}
	s.depth.Add(int64(n))
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Reuse the popped half rather than grow: amortized O(1) per push.
		k := copy(q.buf, q.buf[q.head:])
		clear(q.buf[k:])
		q.buf, q.head = q.buf[:k], 0
	}
	q.buf = append(q.buf, b)
	full = len(q.buf)-q.head > q.limit
	q.mu.Unlock()
	s.rt.pool.wakeOne()
	return true, full
}

// awaitRoom blocks while s's queue holds more than QueueLen batches.
func (s *shard) awaitRoom() {
	q := &s.q
	q.mu.Lock()
	for len(q.buf)-q.head > q.limit && !q.closed && !s.failed.Load() {
		q.waiting++
		q.room.Wait()
		q.waiting--
	}
	q.mu.Unlock()
}

// Claim is a batch of admitted events split by target shard and pushed
// onto the shards' queues (see Runtime.Claim). The zero value is ready
// to use; a reused Claim keeps its capacity.
type Claim struct {
	parts    []claimPart
	rejected int
}

type claimPart struct {
	sh   *shard
	b    batch
	n    int  // events queued; 0 once refused
	full bool // pushed past QueueLen: Deliver waits for room
}

// split groups events by target shard — slots[i], or the shard the
// event's key hashes to when slots is nil or slots[i] < 0 — into parts,
// reusing its capacity. Every target must have passed the door (Gate).
// It returns slices rather than filling a Claim so that a caller's stack
// array can back them.
func (r *Runtime) split(parts []claimPart, events []*event.Event, slots []int, enq time.Time) []claimPart {
	parts = parts[:0]
	if len(events) == 1 {
		e := events[0]
		return append(parts, claimPart{sh: r.shardFor(slotOf(slots, 0), e), b: batch{one: item{e: e, enq: enq}}, n: 1})
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
	return parts
}

// slotOf is event i's target in split's slots: < 0 for its key's shard.
func slotOf(slots []int, i int) int {
	if slots == nil {
		return -1
	}
	return slots[i]
}

// Claim splits events that passed the door by target shard (slots as
// in Gate.Admits, parallel to events; nil: each by its key) and pushes
// each part onto its shard's queue, which never blocks. A caller claims
// under whatever lock orders its own records of the events, so that
// their order is every shard's queue order, and calls Deliver after
// releasing it.
func (r *Runtime) Claim(c *Claim, events []*event.Event, slots []int) {
	c.parts = r.split(c.parts, events, slots, time.Now())
	c.rejected = enqueue(c.parts)
}

// enqueue pushes split parts and returns how many events a closed queue
// refused.
func enqueue(parts []claimPart) (rejected int) {
	for i := range parts {
		p := &parts[i]
		ok, full := p.sh.push(p.b, p.n)
		if !ok {
			rejected += p.n
			p.n = 0
		}
		p.b, p.full = batch{}, full
	}
	return rejected
}

// Deliver waits for room on every queue c pushed past QueueLen (the
// backpressure signal) and returns how many events were accepted; after
// Close the claim refused them. Refusals count in
// Snapshot.AdmissionRejected.
func (r *Runtime) Deliver(c *Claim) int {
	n := r.deliver(c.parts, c.rejected)
	c.parts, c.rejected = c.parts[:0], 0
	return n
}

func (r *Runtime) deliver(parts []claimPart, rejected int) (accepted int) {
	for i := range parts {
		p := &parts[i]
		if p.full {
			p.sh.awaitRoom()
		}
		accepted += p.n
		*p = claimPart{}
	}
	if rejected > 0 {
		r.admissionRejected.Add(uint64(rejected))
	}
	return accepted
}
