package runtime

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/event"
)

// This file is the shard supervisor: the layer that turns "a panic in
// one shard kills the process" into controlled degradation. Each shard
// worker runs its processing loop under recover(); on a panic the
// supervisor quarantines the offending event to the dead-letter queue,
// rebuilds the shard's engine and strategy (losing only that shard's
// in-flight partial matches — the bounded, accounted cost of the fault),
// sleeps a capped, jittered exponential backoff, and resumes from the
// same queue. A circuit breaker marks the shard permanently failed after
// MaxRestarts restarts inside Window; from then on the door refuses the
// shard's key range, with a counted refusal, and the dead worker only
// quarantines what was already queued, so waiting producers never strand.
//
// State machine per shard:
//
//	running ──panic──► quarantine + restart++ ──breaker ok──► backoff ──► running
//	   │                                   └──breaker trips──► failed (refusing)
//	   └──queue closed──► drained (clean exit)

// RestartPolicy tunes the supervisor's backoff and circuit breaker.
// The zero value means "use the defaults".
type RestartPolicy struct {
	// BackoffBase is the delay before the first restart; each further
	// restart inside Window doubles it (default 10ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 2s).
	BackoffMax time.Duration
	// Jitter is the ± fraction applied to each backoff so restarting
	// shards don't thunder in lockstep (default 0.2).
	Jitter float64
	// MaxRestarts is the circuit breaker: more than this many restarts
	// inside Window marks the shard permanently failed (default 5).
	MaxRestarts int
	// Window is the sliding window the breaker counts restarts in
	// (default 1 minute).
	Window time.Duration
}

func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.BackoffBase <= 0 {
		p.BackoffBase = 10 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.Jitter <= 0 || p.Jitter >= 1 {
		p.Jitter = 0.2
	}
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 5
	}
	if p.Window <= 0 {
		p.Window = time.Minute
	}
	return p
}

// backoff returns the sleep before restart number n (1-based) in the
// current window: base·2^(n−1), capped, with ±Jitter applied.
func (p RestartPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.BackoffBase
	for i := 1; i < n && d < p.BackoffMax; i++ {
		d *= 2
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	j := 1 + p.Jitter*(2*rng.Float64()-1)
	return time.Duration(float64(d) * j)
}

// Backoff is the exported form of backoff (defaults applied): the delay
// before retry number n (1-based) of a repeatedly failing operation.
// The cluster failure detector reuses it for peer probes so node-level
// retries follow the same capped, jittered curve as shard restarts.
func (p RestartPolicy) Backoff(n int, rng *rand.Rand) time.Duration {
	return p.withDefaults().backoff(n, rng)
}

// DeadLetter is one quarantined input: an event whose processing
// panicked, an event queued on a shard that failed, or (Shard = -1) a
// rejected raw input such as an undecodable NDJSON line.
type DeadLetter struct {
	Shard   int    `json:"shard"` // -1 for pre-runtime rejections
	Seq     uint64 `json:"seq"`
	Type    string `json:"type,omitempty"`
	Reason  string `json:"reason"`
	Payload string `json:"payload"` // truncated rendering of the input
}

// deadLetterCap is how many recent dead letters a DeadLetterRing
// retains unless told otherwise.
const deadLetterCap = 256

// DeadLetterRing keeps the most recent dead letters plus a monotone
// total: a runtime keeps one for its shards' quarantines, a registry one
// for the lines it rejects before routing. Quarantining must never
// block or grow without bound — the ring exists for postmortems, not
// durability. The zero value is ready to use and safe from any
// goroutine.
type DeadLetterRing struct {
	mu      sync.Mutex
	limit   int // letters retained; 0 means deadLetterCap
	letters []DeadLetter
	total   uint64
}

// keep retains the newest letters of ls, oldest first. The caller holds
// q.mu.
func (q *DeadLetterRing) keep(ls []DeadLetter) {
	n := q.limit
	if n == 0 {
		n = deadLetterCap
	}
	q.letters = ls[max(len(ls)-n, 0):]
}

// Add records one dead letter.
func (q *DeadLetterRing) Add(dl DeadLetter) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	q.keep(append(q.letters, dl))
}

// Letters returns a copy of the retained letters, oldest first.
func (q *DeadLetterRing) Letters() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]DeadLetter(nil), q.letters...)
}

// Total counts every letter ever added, retained or not.
func (q *DeadLetterRing) Total() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Seed restores the ring from a checkpointed state at boot: the
// monotone total resumes and the ring refills with the retained letters
// WITHOUT re-counting them.
func (q *DeadLetterRing) Seed(st *checkpoint.DeadLetterState) {
	if st == nil {
		return
	}
	ls := make([]DeadLetter, 0, len(st.Letters))
	for _, l := range st.Letters {
		ls = append(ls, DeadLetter(l))
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total = st.Total
	q.keep(ls)
}

// State freezes the ring for checkpointing: total plus the retained
// letters, oldest first, under one lock acquisition.
func (q *DeadLetterRing) State() *checkpoint.DeadLetterState {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := &checkpoint.DeadLetterState{Total: q.total}
	for _, dl := range q.letters {
		st.Letters = append(st.Letters, checkpoint.DeadLetterRecord(dl))
	}
	return st
}

// quantum services one claimed shard (the caller holds s.svc) for one
// bounded slice of the processing loop, through recover(), and returns
// whether any work was done. A clean pass that observes the queue
// closed and drained finishes the shard; a panic runs the full
// quarantine / restart / breaker protocol and parks the shard behind a
// notBefore backoff deadline instead of sleeping a goroutine; a failed
// shard only drains.
func (s *shard) quantum(r *Runtime) bool {
	if s.doneFlag.Load() {
		// Another worker finished the shard after this one read it as
		// needing service: a second finish would snapshot the engine the
		// first one flushed over the final snapshot.
		return false
	}
	defer s.handOut()
	if s.failed.Load() {
		return s.drainFailed(r)
	}
	pv, poison, worked, closed := s.quantumOnce()
	if pv == nil {
		if closed {
			s.finish()
			s.markDone(r)
		}
		return worked
	}
	// Settle the open flush group FIRST: recovery below reuses the
	// store, and ShardStore.Load flushes the live writer — which would
	// make the held matches' M records durable while the deliveries
	// sit in pend, exactly the state replay suppression would turn
	// into silently lost matches. Flush-and-release now, before
	// anything else can flush behind our back.
	s.flushPendOnPanic()
	// Then drain the async snapshot protocol: rebuild below discards the
	// engine the in-flight capture pins, and the next recovery reads the
	// very snapshot files the background write is producing.
	s.settleSnapshot(true)
	// A panic inside a restore must not bump the quarantined counter: the
	// restore put its counters back, so the poison's arrival is not
	// counted either. A boot retry counts the seq once through its skip
	// path; a post-panic replay's poison was already counted live; an
	// import's is the source's until a retry succeeds.
	s.quarantine(r, []item{poison}, fmt.Sprintf("panic: %v", pv), !s.recovering.Swap(false))
	s.restarts.Add(1)
	pol := s.cfg.Restart
	now := time.Now()
	s.recent = append(s.recent, now)
	for len(s.recent) > 0 && now.Sub(s.recent[0]) > pol.Window {
		s.recent = s.recent[1:]
	}
	if len(s.recent) > pol.MaxRestarts || !s.rebuild() {
		s.failed.Store(true)
		s.q.wake(false) // producers waiting for room stop waiting
		r.failedShards.Add(1)
		s.signalRecovered()
		r.logf("runtime: shard %d circuit breaker tripped after %d restarts in %s; refusing its key range",
			s.id, len(s.recent), pol.Window)
		s.drainFailed(r)
		return true
	}
	if s.ckpt != nil {
		// The rebuilt engine is empty; the next quantum restores the last
		// snapshot and replays the WAL tail (minus the quarantined seq),
		// so the panic costs at most the in-flight event — not every
		// partial match the shard had open. bootPending (still true if
		// THIS panic interrupted boot replay) tells recoverReplay whether
		// the retry restores the boot way or the post-panic way.
		s.needRecover = true
		s.needRecoverFlag.Store(true)
	}
	d := pol.backoff(len(s.recent), s.rng)
	r.logf("runtime: shard %d recovered from panic on seq=%d (%v); restart %d in %s",
		s.id, poison.seq(), pv, len(s.recent), d)
	s.notBefore.Store(now.Add(d).UnixNano())
	return true
}

// quantumOnce runs one bounded processing slice under recover():
// pending recovery, salvaged remainder, then up to quantumBudget queued
// events. closed reports the input queue closed and drained. On a
// panic pv holds the panic value and poison the item being processed;
// the batch's unprocessed tail is salvaged into s.rem — those events
// were popped from the queue but never reached the engine or the WAL,
// so the next incarnation consumes them as live input right after
// recovery.
func (s *shard) quantumOnce() (pv any, poison item, worked, closed bool) {
	defer func() {
		if p := recover(); p != nil {
			pv, poison, worked = p, s.curItem, true
			if tail := s.panicRemainder(); len(tail) > 0 {
				s.rem = append(tail, s.rem...)
			}
			s.curBatch, s.curIdx = nil, 0
			if s.cfg.Logf != nil {
				s.cfg.Logf("runtime: shard %d panic: %v\n%s", s.id, p, debug.Stack())
			}
		}
	}()
	s.curItem, s.curBatch, s.curIdx = item{}, nil, 0
	if s.needRecover {
		// Recovery runs under the same recover(): a panic while replaying
		// a WAL event quarantines that event (curItem tracks it) and the
		// next quantum retries recovery with the poison seq skipped.
		s.needRecover = false
		s.needRecoverFlag.Store(false)
		s.recoverReplay()
		worked = true
	}
	s.booted.Store(true)
	s.signalRecovered()
	s.settleSnapshot(false)
	if s.covWant.Load() {
		s.coverIdle()
	}
	if len(s.rem) > 0 {
		s.consumeRemainder()
		worked = true
	}
	dw, dc := s.drainQuantum()
	return nil, item{}, worked || dw, dc
}

// panicRemainder copies the unprocessed tail of the batch a panic
// interrupted (everything after the poison item).
func (s *shard) panicRemainder() []item {
	if s.curBatch == nil || s.curIdx+1 >= len(s.curBatch) {
		return nil
	}
	tail := make([]item, len(s.curBatch)-s.curIdx-1)
	copy(tail, s.curBatch[s.curIdx+1:])
	return tail
}

// consumeRemainder feeds events salvaged from a panic-interrupted batch
// back through processing. Each item is popped before it runs, so a
// second poison among them quarantines cleanly and leaves the rest in
// s.rem for the incarnation after that.
func (s *shard) consumeRemainder() {
	if len(s.rem) == 0 {
		return
	}
	t0 := time.Now()
	s.holdOut()
	for len(s.rem) > 0 {
		it := s.rem[0]
		s.rem = s.rem[1:]
		s.curItem = it
		s.depth.Add(-1)
		s.process(it)
	}
	s.rem = nil
	s.endBatch()
	s.busyNs.Add(time.Since(t0).Nanoseconds())
}

// flushPendOnPanic settles the flush group a panic left open: flush the
// store once and deliver the held matches. Runs before quarantine and
// recovery so no other code path (AppendSkip's flush, Load's writer
// flush) can make the M records durable while the deliveries are still
// held back.
func (s *shard) flushPendOnPanic() {
	if s.ckpt == nil || len(s.pend) == 0 {
		return
	}
	if err := s.ckpt.Flush(); err != nil {
		s.walFailed("flush", err)
		return
	}
	s.releasePend()
}

func (it item) seq() uint64 {
	if it.e == nil {
		return 0
	}
	return it.e.Seq
}

// quarantine dead-letters items this shard will never process: a
// poison event, or what a failed shard drains from its queue. Each is
// counted in quarantined (count=false for panics inside a restore,
// which counted nothing) and, when durable,
// gets a Q record — all flushed at once — so replay after the NEXT
// crash (or restart) skips it: a deterministic poison event cannot
// re-crash recovery forever. The ring gets one letter for the lot, the
// first item's, so a drained queue cannot push out the panic letters
// that explain the trip; it is saved right away (not just at the next
// snapshot): if the process dies during the restart backoff, the
// postmortem record of WHY it was crashing must already be on disk.
// Runs on this shard's worker goroutine, so s.id cannot collide with a
// snapshot-time save.
func (s *shard) quarantine(r *Runtime, items []item, reason string, count bool) {
	var first *event.Event
	seqs := make([]uint64, 0, len(items))
	for _, it := range items {
		if it.e == nil {
			continue
		}
		if first == nil {
			first = it.e
		}
		seqs = append(seqs, it.e.Seq)
	}
	if first == nil {
		return
	}
	if count {
		s.quarantined.Add(uint64(len(seqs)))
	}
	if s.ckpt != nil {
		if err := s.ckpt.AppendSkip(seqs...); err != nil {
			s.walFailed("skip append", err)
		}
	}
	if len(seqs) > 1 {
		reason = fmt.Sprintf("%s (and %d more)", reason, len(seqs)-1)
	}
	r.dlq.Add(DeadLetter{
		Shard:   s.id,
		Seq:     first.Seq,
		Type:    first.Type,
		Reason:  reason,
		Payload: truncatePayload(EncodeEvent(first), maxPayloadSample),
	})
	r.saveDeadLetters(s.id)
}

// rebuild replaces the engine and strategy with fresh instances. The
// old engine's partial matches are gone — that loss is the quarantine
// cost of the fault and is visible through the createdPMs/droppedPMs
// offsets staying monotone. Returns false when the strategy factory
// itself panics, which the caller treats as an immediate breaker trip.
func (s *shard) rebuild() (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
		}
	}()
	st := s.en.Stats()
	s.pmCreatedBase += st.CreatedPMs
	s.pmDroppedBase += st.DroppedPMs
	is := s.en.IndexStats()
	s.indexBase.Visited += is.Visited
	s.indexBase.Pruned += is.Pruned
	s.build()
	s.livePMs.Store(0)
	return true
}

// drainFailed services a permanently failed shard. The door refuses
// its key range, so what reaches it was queued before the breaker
// tripped or raced past the door: every such item, including a batch
// tail a panic salvaged into s.rem, is quarantined with reason "shard
// failed", one quarantine call per pass, so no later recovery replays
// it; control ops are answered with an error. Producers never wait on
// a failed shard's queue and Close still drains. An empty queue reports
// no work, so the worker parks instead of spinning.
func (s *shard) drainFailed(r *Runtime) bool {
	worked := len(s.rem) > 0
	drop := s.rem
	s.rem = nil
	for consumed := 0; consumed < quantumBudget; consumed++ {
		b, ok, closed := s.q.pop()
		if !ok {
			s.drained = closed
			break
		}
		worked = true
		switch {
		case b.ctl != nil:
			// The engine behind this shard is dead (and possibly
			// inconsistent mid-panic), so control ops answer with an error
			// instead of touching it.
			s.depth.Add(-1)
			select {
			case b.ctl.reply <- ctlReply{err: fmt.Errorf("shard %d: failed; cannot service control op", s.id)}:
			default:
			}
		case b.items == nil:
			drop = append(drop, b.one)
		default:
			drop = append(drop, *b.items...)
			putItems(b.items)
		}
	}
	s.dropFailed(r, drop)
	if s.drained {
		s.markDone(r)
	}
	return worked
}

// dropFailed counts items that reached a failed shard as arrived
// (events_in == shed + processed + quarantined), quarantines them and
// only then releases their depth. After Kill it only discards: the
// crash already happened.
func (s *shard) dropFailed(r *Runtime, items []item) {
	if len(items) == 0 {
		return
	}
	if !s.rt.killed.Load() {
		for _, it := range items {
			if it.e != nil {
				s.eventsIn.Add(1)
			}
		}
		s.quarantine(r, items, "shard failed", true)
	}
	s.depth.Add(-int64(len(items)))
}
