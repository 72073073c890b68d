package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/shed"
)

// item is one queued event plus its enqueue instant; the difference
// between dequeue-plus-service completion and enq is the wall-clock
// latency sample fed to the shedding control loop.
type item struct {
	e   *event.Event
	enq time.Time
}

// batch is what the shard queue carries: either a single item (items
// nil — a lone event's fast path, no slice), a pooled slice of items
// from OfferBatch, or a control message (ctl non-nil) for the
// shard-migration path. Ownership of items transfers to the consumer,
// which returns the slice to itemSlicePool when done. Control messages
// ride the same queue so they are ordered behind every event already
// queued — an export observes a fully drained shard by construction.
type batch struct {
	one   item
	items *[]item
	ctl   *shardCtl
}

// itemSlicePool recycles OfferBatch's per-shard item slices between
// producers and shard workers. They travel as the pool's own pointers,
// so neither the Get nor the Put allocates.
var itemSlicePool = sync.Pool{New: func() any {
	s := make([]item, 0, 256)
	return &s
}}

func getItems() *[]item { return itemSlicePool.Get().(*[]item) }

func putItems(items *[]item) {
	*items = (*items)[:0]
	itemSlicePool.Put(items)
}

// shard owns one engine instance and one strategy instance. The engine
// and strategy are touched ONLY by the worker currently holding svc
// (workers.go); claims never overlap, so "worker-owned" below means
// owned by whichever worker holds the claim. Every field read by
// Snapshot from other goroutines is atomic. On a panic the supervisor
// (supervisor.go) rebuilds the engine and strategy in place — both are
// claim-owned, so the rebuild needs no locking.
type shard struct {
	id    int
	q     queue        // input (queue.go)
	depth atomic.Int64 // queued events + control messages, from push until processed
	m     *nfa.Machine // kept for supervisor rebuilds
	en    *engine.Engine
	strat shed.Strategy
	cfg   Config

	// Worker-pool state (workers.go).
	rt              *Runtime     // owner: its closed flag, steals and done
	svc             sync.Mutex   // claim lock: one servicing worker at a time
	booted          atomic.Bool  // first quantum ran (trafficless shards still recover)
	doneFlag        atomic.Bool  // retired from the pool after finish
	needRecoverFlag atomic.Bool  // needRecover, for the unlocked needsService probe
	notBefore       atomic.Int64 // restart-backoff deadline (unix ns): dormant until then
	drained         bool         // claim-owned: input queue observed closed and empty

	// Supervisor restart bookkeeping, claim-owned.
	recent []time.Time
	rng    *rand.Rand

	// Async snapshot state (claim-owned except snapFinalize, which the
	// background goroutine sets to request finalization, then pokes the
	// worker pool so an idle shard finalizes promptly).
	pendingSnap  *pendingSnap
	snapFinalize atomic.Bool

	hist      *metrics.Histogram // latency; Runtime.Snapshot merges the shards'
	ewma      atomic.Uint64      // math.Float64bits of the smoothed latency
	lastNs    atomic.Int64       // wall instant of the last latency sample
	stratName atomic.Value       // string; s.strat itself is worker-owned
	planRep   atomic.Value       // shed.PlanReporter, when the strategy is one

	// Shed-decision-path observability. admitNs is extrapolated wall
	// time spent in ρI admission: every admitSamplePeriod-th decision is
	// timed and charged for the whole stride (timing each one would cost
	// more than the decision itself). admitSeq is worker-owned.
	// classBuckets/classLive/classDead mirror the engine's class-bucket
	// index occupancy, indexVisited/indexPruned its dispatch-index work
	// counters, published at batch boundaries like the PM stats.
	admitNs      atomic.Int64
	admitSeq     uint64
	classBuckets atomic.Int64
	classLive    atomic.Int64
	classDead    atomic.Int64
	indexVisited atomic.Uint64
	indexPruned  atomic.Uint64

	// busyNs accumulates wall time the worker spent consuming batches
	// (engine work + WAL + delivery; queue waiting excluded). Measured at
	// batch granularity — two clock reads per drained batch — it is the
	// utilization signal the cross-query arbiter divides CPU capacity by.
	busyNs atomic.Int64

	eventsIn    atomic.Uint64
	eventsShed  atomic.Uint64
	processed   atomic.Uint64
	matched     atomic.Uint64
	livePMs     atomic.Int64
	createdPMs  atomic.Uint64
	droppedPMs  atomic.Uint64
	restarts    atomic.Uint64
	quarantined atomic.Uint64
	failed      atomic.Bool

	// Engine stats reset when the supervisor rebuilds the engine; these
	// worker-only offsets keep the exported counters monotone across
	// restarts.
	pmCreatedBase uint64
	pmDroppedBase uint64
	indexBase     engine.IndexStats

	// res holds the engine's result for the event in hand: a field, not
	// a local, because the strategy's Observe takes its address and a
	// local would escape to the heap once per (event, query) pair.
	res engine.Result

	out []engine.Match // cleared for delivery, not yet handed to OnMatches (claim-owned)
	// inHand is set while the worker holds events taken off the queue
	// whose matches have not yet been through handOut. Snapshot counts it
	// as one more queued item, so a reader that sees a drained queue also
	// sees every match of it delivered to the sink.
	inHand atomic.Bool

	// Durability (nil ckpt: the shard runs without checkpointing; also
	// the degraded state walFailed leaves behind). All non-atomic fields
	// below are worker-owned.
	ckpt      *checkpoint.ShardStore
	lastSeq   uint64 // seq/time of the last event the shard consumed
	lastTime  int64
	hasSeq    bool // lastSeq/lastTime are meaningful (seq numbering starts at 0)
	sinceSnap int  // events since the last snapshot

	// consumed counts the log's events this shard has consumed (replayed
	// or taken off its queue); snapConsumed is its value at the capture
	// of the newest published snapshot. A post-panic recovery replays
	// exactly the consumed-since-snapshot prefix of the shard's log tail:
	// the log already holds the events still queued behind the poison.
	consumed     uint64
	snapConsumed uint64
	// covWant is set by the log when this shard's snapshot floor pins
	// its oldest segment: the next claim snapshots (see coverIdle).
	covWant atomic.Bool
	log     *checkpoint.Log

	// pend holds matches whose M records sit in the current WAL flush
	// group: group commit defers the flush, so delivery defers with it.
	// Released, in order, the moment a flush makes the records durable —
	// on the covering policy flush, at the batch boundary, or (panic)
	// explicitly before recovery reuses the store.
	pend    []engine.Match
	pendLSN []uint64 // the log position each held match's M record ends at

	// curBatch/curIdx/curItem track the batch being consumed so a panic
	// can report the poison item and put the unprocessed remainder back
	// onto the head of the queue, where it is popped as live input after
	// the post-panic recovery (those events never reached the engine, so
	// they come after the replayed prefix).
	curBatch []item
	curIdx   int
	curItem  item

	// needRecover is consumed at the top of the worker loop: true at boot
	// (restore snapshot + replay WAL) and after every supervisor rebuild.
	// bootPending stays true until a BOOT recovery completes without
	// panicking, so a retry after a replay panic still restores the boot
	// way (restoreBoot) instead of the post-panic way (restorePanic).
	needRecover   bool
	bootPending   bool
	recoverDone   func() // Runtime.recoverWG.Done, via recoveredOnce
	recoveredOnce sync.Once
	saveDLQ       func() // checkpoint the runtime dead-letter queue

	// exported marks a shard whose state was frozen and handed to
	// another node (worker-owned, like the engine it guards): the engine
	// is no longer authoritative, so stray events that still reach the
	// shard are quarantined — counted into eventsIn AND quarantined so
	// the conservation identity survives a migration — instead of
	// processed. exportedFlag mirrors it for Snapshot readers.
	exported     bool
	exportedFlag atomic.Bool

	recovering     atomic.Bool
	snapshots      atomic.Uint64
	snapBytes      atomic.Int64
	snapPauseMax   atomic.Int64 // worst serving-thread pause inside snapshot work, ns
	snapUnixNs     atomic.Int64
	walReplayed    atomic.Uint64
	coldStarts     atomic.Uint64
	walErrors      atomic.Uint64
	restoredSeq    atomic.Uint64
	restoredTime   atomic.Int64
	restoredHasSeq atomic.Bool
}

func newShard(id int, m *nfa.Machine, cfg Config) *shard {
	s := &shard{
		id:   id,
		m:    m,
		cfg:  cfg,
		hist: metrics.NewHistogram(),
		rng:  rand.New(rand.NewSource(int64(id)*7919 + 1)),
	}
	s.q.room.L, s.q.limit = &s.q.mu, cfg.QueueLen
	s.build()
	return s
}

// build gives the shard a fresh engine and strategy (the factory's; none
// for a nil factory or strategy), attached to each other: at start and
// when the supervisor rebuilds the shard.
func (s *shard) build() {
	var strat shed.Strategy = shed.None{}
	if s.cfg.NewStrategy != nil {
		if ns := s.cfg.NewStrategy(s.id); ns != nil {
			strat = ns
		}
	}
	en := engine.New(s.m, s.cfg.Costs)
	en.DeferredNegation = s.cfg.DeferredNegation
	strat.Attach(en)
	s.en, s.strat = en, strat
	s.stratName.Store(strat.Name())
	if pr, ok := strat.(shed.PlanReporter); ok {
		s.planRep.Store(pr)
	}
}

// excess is a runtime's excess fraction x ∈ [0, MaxExcess], the share
// of θ its strategies give up: the cross-query arbiter (SetExcess) and
// the degradation ladder (updateLevel) each write their own word, and
// the shards apply the larger.
type excess struct{ arbiter, ladder fraction }

func (x *excess) load() float64 { return max(x.arbiter.get(), x.ladder.get()) }

// fraction is one float64 shared through an atomic word.
type fraction struct{ bits atomic.Uint64 }

func (f *fraction) get() float64 { return math.Float64frombits(f.bits.Load()) }

// set stores x unless it is already there, so a writer that sets the
// same value on every offer does not bounce the cache line.
func (f *fraction) set(x float64) {
	if f.get() != x {
		f.bits.Store(math.Float64bits(x))
	}
}

// tighten is the latency a strategy is handed under excess fraction x:
// lat/(1−x). Every strategy tests lat > θ and sizes its response by
// (lat−θ)/lat, so this runs it against θ·(1−x) without rebuilding it.
// x = 0 hands lat through untouched.
func tighten(lat event.Time, x float64) event.Time {
	if x <= 0 {
		return lat
	}
	return event.Time(float64(lat) / (1 - x))
}

// control runs the strategy's control step on the smoothed latency,
// tightened by the runtime's current excess fraction.
func (s *shard) control(now, lat event.Time) { s.strat.Control(now, tighten(lat, s.rt.x.load())) }

// admitSamplePeriod is the ρI timing sample stride (power of two so the
// stride test is a mask and the extrapolation a shift).
const admitSamplePeriod = 64

// batchBudget bounds how many drained events may share one batch
// boundary: the engine-stats sync, the covering WAL flush, and the
// snapshot check run once per budget (or as soon as the queue goes
// idle) instead of once per event. It generalizes the old
// statsSyncBatch constant to the whole batch drain.
const batchBudget = 64

// quantumBudget and quantumWall bound one shard claim (events, and batch
// time checked per received batch), so neither one deep queue nor one
// expensive query starves the other shards on a shared worker.
const (
	quantumBudget = 4 * batchBudget
	quantumWall   = 2 * time.Millisecond
)

// needsService reports whether a worker should claim this shard now
// (ready) or soon (waiting: pending work held off by a restart
// backoff). It reads only atomics — every worker pass probes every
// shard with it, unlocked.
func (s *shard) needsService(now int64) (ready, waiting bool) {
	if s.doneFlag.Load() {
		return false, false
	}
	if s.depth.Load() <= 0 && s.booted.Load() && !s.snapFinalize.Load() &&
		!s.needRecoverFlag.Load() && !s.covWant.Load() && !s.rt.closed.Load() {
		return false, false
	}
	if nb := s.notBefore.Load(); nb > now {
		return false, true
	}
	return true, false
}

// drainQuantum is the batched consume loop: pops until batchBudget
// events are in hand or the queue is momentarily empty, then one
// explicit endBatch; up to quantumBudget events or quantumWall of
// batches per call. Never blocks — an empty queue returns to the
// worker, which sleeps on the wake channel instead of inside a shard
// claim. closed reports the queue closed and drained.
func (s *shard) drainQuantum() (worked, closed bool) {
	var spent time.Duration
	for consumed := 0; consumed < quantumBudget && spent < quantumWall && !s.drained; {
		n := 0
		var t0 time.Time
		for n < batchBudget {
			b, ok, closed := s.q.pop()
			if !ok {
				s.drained = closed
				break
			}
			if n == 0 {
				// Everything from the first pop to the batch boundary is
				// service time, charged to busyNs.
				t0 = time.Now()
			}
			n += s.consumeBatch(b)
			if spent+time.Since(t0) >= quantumWall {
				break
			}
		}
		if n == 0 {
			break
		}
		worked = true
		s.endBatch()
		s.handOut()
		d := time.Since(t0)
		s.busyNs.Add(d.Nanoseconds())
		spent += d
		consumed += n
	}
	return worked, s.drained
}

// markDone retires the shard from the worker pool: its queue closed
// and finish (or a failed shard's drain) completed. signalRecovered
// backstops WaitRecovered against shards that die before boot recovery
// ran; r.done releases Close once every shard has retired.
func (s *shard) markDone(r *Runtime) {
	s.doneFlag.Store(true)
	s.signalRecovered()
	r.done.Done()
}

// consumeBatch processes every item of one received batch, maintaining
// the poison-tracking fields for the supervisor's recover() and
// returning the slice to the pool once fully consumed.
func (s *shard) consumeBatch(b batch) int {
	if b.ctl != nil {
		// Control messages count into depth (the worker pool's "needs
		// service" signal), so decrement like an event; curItem is cleared
		// so a control-op panic doesn't mis-quarantine the previous event.
		s.curItem = item{}
		s.depth.Add(-1)
		s.handleCtl(b.ctl)
		return 1
	}
	if b.items == nil {
		s.curItem = b.one
		s.holdOut()
		s.depth.Add(-1)
		s.process(b.one)
		return 1
	}
	items := *b.items
	s.curBatch = items
	s.holdOut()
	for i := range items {
		s.curIdx = i
		s.curItem = items[i]
		s.depth.Add(-1)
		s.process(items[i])
	}
	s.curBatch, s.curIdx = nil, 0
	putItems(b.items)
	return len(items)
}

// endBatch runs once per drained batch: publish engine stats, settle
// the WAL flush group, and take the periodic snapshot. The flush group
// — and with it any held-back matches — survives across batch
// boundaries while input keeps coming: it closes when the policy says
// so (FlushEvery records, FlushBytes bytes, FlushInterval age), when
// the queue goes idle, or before a snapshot publishes its floor (Save
// flushes the log internally, and durable-but-undelivered M records
// are exactly the state replay suppression would turn into lost
// matches — so the release MUST come first). Delivery latency under
// continuous load is therefore bounded by FlushInterval, and an idle
// queue delivers immediately.
func (s *shard) endBatch() {
	s.syncEngineStats()
	s.settleSnapshot(false)
	if s.ckpt == nil {
		return
	}
	if s.rt.killed.Load() {
		s.releaseDurable()
		return
	}
	snapDue := s.sinceSnap >= s.ckpt.EveryEvents()
	if snapDue || s.depth.Load() == 0 {
		// One covering flush (one fsync when configured) makes every
		// buffered E and M record durable, then the matches those M
		// records cover are delivered.
		if err := s.ckpt.Flush(); err != nil {
			s.walFailed("flush", err)
			return
		}
		s.releasePend()
	} else {
		if err := s.ckpt.FlushIfDue(); err != nil {
			s.walFailed("flush", err)
			return
		}
		if len(s.pend) > 0 && s.ckpt.Unflushed() == 0 {
			s.releasePend()
		}
	}
	if snapDue && s.pendingSnap == nil {
		// One capture in flight at a time; sinceSnap keeps accumulating
		// until the slot frees, so a slow write just stretches the
		// interval instead of dropping a snapshot.
		s.takeSnapshotAsync()
	}
}

// releasePend delivers every held-back match, in order.
func (s *shard) releasePend() {
	for i := range s.pend {
		s.emit(s.pend[i])
	}
	s.pend, s.pendLSN = s.pend[:0], s.pendLSN[:0]
}

// releaseDurable is Kill's crash instant: the held matches whose M
// records some flush on the shared log already made durable are
// delivered — the crash lands just after their release — and the rest,
// whose records the aborted log loses, are dropped: that is the
// simulated crash loss.
func (s *shard) releaseDurable() {
	n := 0
	for n < len(s.pend) && s.ckpt.Durable(s.pendLSN[n]) {
		s.emit(s.pend[n])
		n++
	}
	s.pend, s.pendLSN = s.pend[:0], s.pendLSN[:0]
}

// emit counts one match cleared for delivery — its M record is durable,
// or the shard runs without a store — and queues it for the sink.
func (s *shard) emit(m engine.Match) {
	s.matched.Add(1)
	s.queue(m)
}

// queue hands one match, already counted, to the sink's next hand-out.
func (s *shard) queue(m engine.Match) {
	if s.cfg.OnMatches != nil {
		s.out = append(s.out, m)
	}
}

// handOut gives the sink every match emitted since the previous call,
// in detection order: after each drained batch and once more before the
// claim is released (quantum), so whatever cleared a match — a flush,
// finish, a control op, a WAL failure, the panic protocol, recovery
// replay — the worker that cleared it delivers it, and a batch without
// matches costs one length check.
func (s *shard) handOut() {
	if len(s.out) > 0 {
		s.cfg.OnMatches(s.id, s.out)
		clear(s.out)
		s.out = s.out[:0]
	}
	if s.inHand.Load() {
		s.inHand.Store(false)
	}
}

// holdOut marks events as taken off the queue ahead of their hand-out;
// it must run before their depth is released.
func (s *shard) holdOut() {
	if !s.inHand.Load() {
		s.inHand.Store(true)
	}
}

// signalRecovered releases Runtime.WaitRecovered for this shard; safe to
// call on every loop entry (once-guarded) and from the worker's exit
// defer, so the wait can never strand on a shard that dies early.
func (s *shard) signalRecovered() {
	if s.recoverDone != nil {
		s.recoveredOnce.Do(s.recoverDone)
	}
}

// walFailed handles a WAL append/flush failure (disk full, I/O error —
// bufio keeps the first error sticky, so every later write would fail
// too). The bounded-loss and no-duplicate contracts can no longer be
// honored, so rather than silently delivering matches with no durable
// record (which the next recovery would re-emit), the shard counts the
// failure, logs loudly, and drops to running without durability. The
// store is aborted, not closed: flushing is exactly what just failed.
// Matches held for the failed flush group are delivered on the way out
// — availability wins; the broken contract is declared, not widened.
func (s *shard) walFailed(op string, err error) {
	s.walErrors.Add(1)
	if s.cfg.Logf != nil {
		s.cfg.Logf("runtime: shard %d: WAL %s failed; durability DISABLED for this shard — state on disk is frozen at the failure point and exactly-once no longer holds across a restart: %v",
			s.id, op, err)
	}
	s.ckpt.Abort()
	s.ckpt = nil
	s.releasePend()
}

// syncEngineStats publishes the worker-owned engine counters to the
// atomics Snapshot reads.
func (s *shard) syncEngineStats() {
	st := s.en.Stats()
	s.livePMs.Store(int64(s.en.LiveCount()))
	s.createdPMs.Store(s.pmCreatedBase + st.CreatedPMs)
	s.droppedPMs.Store(s.pmDroppedBase + st.DroppedPMs)
	cs := s.en.ClassIndexStats()
	s.classBuckets.Store(int64(cs.Buckets))
	s.classLive.Store(int64(cs.Live))
	s.classDead.Store(int64(cs.Dead))
	is := s.en.IndexStats()
	s.indexVisited.Store(s.indexBase.Visited + is.Visited)
	s.indexPruned.Store(s.indexBase.Pruned + is.Pruned)
}

// process handles one dequeued event: the WAL append, ρI admission, the
// fault hook, the engine step, match delivery, the latency sample, the
// strategy's control step, and the periodic snapshot. It is the only
// code a supervisor-caught panic can come from.
func (s *shard) process(it item) {
	if s.rt.killed.Load() {
		// Kill(): drain-and-discard so blocked producers unblock, but no
		// event reaches the engine or the WAL — the crash already happened.
		return
	}
	if s.exported {
		// The slot migrated away; there is no authoritative engine here
		// for the event, so processing it would fork the slot's state.
		// Quarantine keeps arrivals accounted for (events_in == shed +
		// processed + quarantined) until the router catches up.
		s.eventsIn.Add(1)
		s.quarantined.Add(1)
		return
	}
	e := it.e
	if s.ckpt != nil {
		// The producer logged the event before queueing it, so an event
		// whose processing crashes the worker is replayable (and skippable
		// via a Q record); consumed bounds a post-panic replay to it.
		s.lastSeq, s.lastTime, s.hasSeq = e.Seq, int64(e.Time), true
		s.consumed++
		if len(s.pend) > 0 && s.ckpt.Unflushed() == 0 {
			// A flush elsewhere on the log made the held matches' M records
			// durable as a side effect.
			s.releasePend()
		}
	}
	s.eventsIn.Add(1)

	// Time every admitSamplePeriod-th ρI decision and charge it for the
	// whole stride: the compiled admission path is a few array compares,
	// so per-event clock reads would dominate what they measure.
	var admitT0 time.Time
	s.admitSeq++
	sampleAdmit := s.admitSeq%admitSamplePeriod == 0
	if sampleAdmit {
		admitT0 = time.Now()
	}
	admitted := s.strat.AdmitEvent(e, e.Time)
	if sampleAdmit {
		s.admitNs.Add(time.Since(admitT0).Nanoseconds() * admitSamplePeriod)
	}
	if !admitted {
		// ρI dropped the event before any engine work; the sample
		// still enters the latency stream — a shed event was "served"
		// nearly for free, which is exactly how shedding relieves the
		// queue.
		s.eventsShed.Add(1)
		s.record(it.enq)
		s.noteSnapshotProgress()
		return
	}

	if s.cfg.BeforeProcess != nil {
		s.cfg.BeforeProcess(s.id, e)
	}

	s.res = s.en.Process(e)
	s.processed.Add(1)
	s.strat.Observe(&s.res, e.Time)

	if len(s.res.Matches) > 0 {
		s.deliver(s.res.Matches, e.Seq)
	}

	s.control(e.Time, s.record(it.enq))
	s.noteSnapshotProgress()
}

// deliver emits matches under the flush-before-deliver invariant: a
// match's M record must be durable before the match reaches OnMatches, so
// a crash can lose an undelivered match but never deliver one twice.
// Under group commit the record joins the current flush group and the
// match waits in pend until a flush covers it — the policy flush an
// append trips, or the batch boundary's explicit one. (Replayed matches
// take the other commit: restore's snapshot.)
func (s *shard) deliver(matches []engine.Match, seq uint64) {
	for i := range matches {
		m := matches[i]
		if s.ckpt == nil {
			s.emit(m)
			continue
		}
		// If the append fails, the match is still delivered (availability
		// wins) but the exactly-once contract is declared broken, not
		// silently voided — walFailed also releases any earlier matches of
		// the failed group, keeping delivery order.
		if err := s.ckpt.AppendMatchKey(seq, m.Key()); err != nil {
			s.walFailed("match append", err)
			s.emit(m)
			continue
		}
		if s.ckpt.Unflushed() == 0 {
			s.releasePend()
			s.emit(m)
		} else {
			s.pend = append(s.pend, m)
			s.pendLSN = append(s.pendLSN, s.ckpt.LSN())
		}
	}
}

// noteSnapshotProgress counts processed events toward the snapshot
// interval; the snapshot itself is taken at the batch boundary
// (endBatch), after the flush group settles and held matches release,
// so snapshot counters are always delivery-consistent.
func (s *shard) noteSnapshotProgress() {
	if s.ckpt != nil {
		s.sinceSnap++
	}
}

// noteSnapPause records one stretch of snapshot work done inline on the
// claiming worker — time the shard was NOT processing events because of
// the snapshot protocol: the capture and the finalize (flush + floor
// publication) of a snapshot. The max is exported as
// ShardSnapshot.SnapPauseMaxNs, the worst event-latency spike
// durability injects.
func (s *shard) noteSnapPause(t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	for {
		cur := s.snapPauseMax.Load()
		if d <= cur || s.snapPauseMax.CompareAndSwap(cur, d) {
			return
		}
	}
}

// saveSnapshot persists the shard's full state, publishes its seq floor
// to the log's compaction, and waits for both: the periodic protocol
// (takeSnapshotAsync), settled at once. Only for quiescent shards, where
// the wait stalls nobody: the final snapshot in finish, a barrier, and
// restore's commit. A failed capture, write (a panic in it included),
// flush or floor publication is its error.
func (s *shard) saveSnapshot() error {
	s.settleSnapshot(true) // one capture in flight at a time
	s.takeSnapshotAsync()
	if err := s.settleSnapshot(true); err != nil {
		return fmt.Errorf("shard %d: snapshot: %w", s.id, err)
	}
	return nil
}

// pendingSnap is one in-flight background snapshot: the engine capture,
// the shell state being filled in, and the completion signal. err/bytes
// are written by the background goroutine before close(done) and read
// by the shard only after it.
type pendingSnap struct {
	ref        *engine.SnapshotRef
	st         *checkpoint.ShardState
	consumedAt uint64 // shard.consumed at capture
	done       chan struct{}
	bytes      int
	err        error
}

// takeSnapshotAsync starts the off-hot-path snapshot protocol: pin the
// engine's live matches by reference (engine.CaptureSnapshot — a flag
// write per live match, no copying), freeze the counters and the seq
// floor, and hand encoding plus the file writes to a background
// goroutine. The shard keeps processing events meanwhile; those land in
// the input log above the captured floor, and compaction keeps every
// record above the last published floor, so whatever instant a crash
// hits, Load replays exactly the suffix the published snapshot misses.
// The shard finalizes — floor publication, counters, capture release —
// in settleSnapshot once the write signals completion.
func (s *shard) takeSnapshotAsync() {
	defer s.noteSnapPause(time.Now())
	ref := s.en.CaptureSnapshot()
	if ref == nil {
		return // capture already in flight (pendingSnap should have gated this)
	}
	s.sinceSnap = 0
	ps := &pendingSnap{ref: ref, st: s.buildStateShell(), consumedAt: s.consumed, done: make(chan struct{})}
	s.pendingSnap = ps
	ckpt, rt := s.ckpt, s.rt
	go func() {
		defer close(ps.done)
		defer func() {
			if p := recover(); p != nil {
				ps.err = fmt.Errorf("snapshot encode/write panic: %v", p)
			}
			s.snapFinalize.Store(true)
			rt.pool.wakeOne()
		}()
		ps.st.Engine = ref.Encode()
		if rt.killed.Load() {
			// Kill() raced the write: leave the files alone — the abandoned
			// WAL tail IS the simulated crash state.
			ps.err = fmt.Errorf("runtime killed during snapshot")
			return
		}
		ps.bytes, ps.err = ckpt.WriteSnapshot(ps.st)
	}()
}

// settleSnapshot finalizes a completed background snapshot on the
// claiming worker: release the engine capture, publish the snapshot's
// seq floor to the log's compaction, publish the counters. block=true
// waits for an in-flight write — the paths that need the snapshot
// protocol quiescent (saveSnapshot, export, retire, panic recovery,
// which reuses the store and rebuilds the engine); block=false
// finalizes only when the background goroutine has already signalled
// completion. It returns the snapshot's failure, if it had one.
func (s *shard) settleSnapshot(block bool) error {
	ps := s.pendingSnap
	if ps == nil {
		return nil
	}
	if block {
		<-ps.done
	} else {
		select {
		case <-ps.done:
		default:
			return nil
		}
	}
	s.pendingSnap = nil
	s.snapFinalize.Store(false)
	// Timed from here — after the wait, not including it: the blocking
	// wait only happens on quiescence paths (finish, export, retire),
	// while the serving path always arrives non-blocking with the write
	// already signalled. What remains below is the inline finalize cost.
	defer s.noteSnapPause(time.Now())
	// Release runs here — on the claiming worker, between Process calls —
	// per the SnapshotRef contract; captures that died mid-flight recycle
	// now. Harmless after a supervisor rebuild: the ref unpins matches of
	// the discarded engine.
	ps.ref.Release()
	if ps.err != nil {
		if s.cfg.Logf != nil {
			s.cfg.Logf("runtime: shard %d: snapshot failed: %v", s.id, ps.err)
		}
		return ps.err
	}
	if s.ckpt == nil || s.rt.killed.Load() {
		return nil
	}
	// Settle the open flush group BEFORE publishing the floor: that
	// flushes the log, which would make held matches' M records durable
	// while their deliveries sit in pend — exactly the lost-match state
	// replay suppression would create.
	if err := s.ckpt.Flush(); err != nil {
		s.walFailed("flush", err)
		return err
	}
	s.releasePend()
	if err := s.ckpt.PublishFloor(); err != nil {
		s.walFailed("floor publish", err)
		return err
	}
	s.snapshots.Add(1)
	s.snapBytes.Store(int64(ps.bytes))
	s.snapUnixNs.Store(ps.st.TakenNs)
	s.snapConsumed = ps.consumedAt
	if s.saveDLQ != nil {
		s.saveDLQ()
	}
	return nil
}

// coverIdle answers the log's request for a snapshot: this shard's
// floor pins the log's oldest segment. A drained shard has consumed
// every event routed before the log's routed watermark, so its state
// is the state as of that watermark and the snapshot claims it as its
// floor; an idle shard then stops pinning the log at its next segment.
func (s *shard) coverIdle() {
	s.covWant.Store(false)
	if s.ckpt == nil || s.exported || s.pendingSnap != nil || s.rt.killed.Load() {
		return
	}
	// The watermark is read before the queue checks: every event below
	// it was pushed, and counted in depth, before the watermark was
	// published, and stays counted until processed.
	if w, ok := s.log.Routed(); ok && s.depth.Load() == 0 &&
		(!s.hasSeq || w > s.lastSeq) {
		s.lastSeq, s.hasSeq = w, true
	}
	s.takeSnapshotAsync()
}

// buildStateShell freezes everything EXCEPT the engine image: counters,
// the WAL seq floor, and the strategy blob. The snapshot protocol fills
// Engine in on the background goroutine from the by-reference capture,
// an export from a copy.
func (s *shard) buildStateShell() *checkpoint.ShardState {
	st := &checkpoint.ShardState{
		Shard:        s.id,
		LastSeq:      s.lastSeq,
		HasSeq:       s.hasSeq,
		LastTime:     s.lastTime,
		TakenNs:      time.Now().UnixNano(),
		Counters:     s.counters(),
		StrategyName: s.strat.Name(),
	}
	if ds, ok := s.strat.(shed.DurableStrategy); ok {
		if blob, err := ds.MarshalState(); err == nil {
			st.Strategy = blob
		}
	}
	return st
}

// counters reads the shard's monotone counters.
func (s *shard) counters() checkpoint.Counters {
	return checkpoint.Counters{
		EventsIn:    s.eventsIn.Load(),
		EventsShed:  s.eventsShed.Load(),
		Processed:   s.processed.Load(),
		Matched:     s.matched.Load(),
		Restarts:    s.restarts.Load(),
		Quarantined: s.quarantined.Load(),
		BaseCreated: s.pmCreatedBase,
		BaseDropped: s.pmDroppedBase,
	}
}

// saturatingSub keeps counter compositions from wrapping when a replay
// regenerates more state than the pre-crash run had counted.
func saturatingSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// recoverReplay loads the shard's newest snapshot and its log tail and
// restores them: at boot, and after a panic rebuilt the engine. Every
// failure degrades to a counted cold start — a corrupt file must never
// crash-loop the shard.
func (s *shard) recoverReplay() {
	// bootPending, not "is this the first recovery", selects the boot
	// restore: a replay panic during boot sends the retry back here, and
	// the retry must still restore the boot way.
	kind, load := restorePanic, s.ckpt.Load
	if s.bootPending {
		kind, load = restoreBoot, s.ckpt.LoadBoot
	}
	s.recovering.Store(true)
	res, err := load()
	if err != nil {
		s.recovering.Store(false)
		s.coldStarts.Add(1)
		if s.cfg.Logf != nil {
			s.cfg.Logf("runtime: shard %d: checkpoint load failed, cold start: %v", s.id, err)
		}
		s.bootPending = false
		return
	}
	if res.CorruptSnaps > 0 && res.State == nil {
		s.coldStarts.Add(1) // state existed, none of it decodes (a foreign version, say)
	}
	if res.CorruptSnaps > 0 && s.cfg.Logf != nil {
		s.cfg.Logf("runtime: shard %d: %d corrupt snapshot generation(s), usedPrev=%v",
			s.id, res.CorruptSnaps, res.UsedPrev)
	}
	if res.StaleWAL > 0 && s.cfg.Logf != nil {
		s.cfg.Logf("runtime: shard %d: removed %d WAL file(s) of a format before v%d; their records are lost",
			s.id, res.StaleWAL, checkpoint.FormatVersion)
	}
	// The log holds this shard's events past the poison too (queued, or
	// put back by the panic): after a panic only the consumed prefix
	// replays, and the rest arrives live. Boot replays the whole tail.
	limit := -1
	if kind == restorePanic {
		limit = int(s.consumed - s.snapConsumed)
	}
	// A ceded shard's state lives on another node now: it restores and
	// replays nothing, and floors itself above the whole log.
	if err := s.restore(res.State, res.Records, res.Marks, kind, limit, res.Ceded); err != nil {
		// Decodable but structurally unusable (format drift inside one
		// version, or a machine mismatch the fingerprint missed): a counted
		// cold start that replays the whole tail.
		s.coldStarts.Add(1)
		if s.cfg.Logf != nil {
			s.cfg.Logf("runtime: %v; cold start", err)
		}
		_ = s.restore(nil, res.Records, res.Marks, kind, limit, false) // no state, no import: nothing to fail
	}
	if res.Torn && s.cfg.Logf != nil {
		s.cfg.Logf("runtime: shard %d: WAL tail torn (expected after a crash)", s.id)
	}
	s.bootPending = false
}

// restoreKind names whose history a restore installs, which decides how
// the restore counts it.
type restoreKind int

const (
	// restoreBoot installs the shard's own snapshot at boot: the counters
	// resume from the snapshot's and the tail counts on top of them, the
	// matches the previous incarnation delivered included.
	restoreBoot restoreKind = iota
	// restorePanic reinstalls the shard's own snapshot after a panic
	// rebuilt the engine: the live counters survived and already count
	// the tail, so only the matches replay completes anew are counted.
	restorePanic
	// restoreImport installs another node's state: the tail counts here
	// like live input, and the source's counters and deliveries stay the
	// source's.
	restoreImport
)

// mark is what a restore changes ahead of its commit: the counters and
// the seq position. A restore that does not commit puts it back.
type mark struct {
	c                      checkpoint.Counters
	lastSeq                uint64
	lastTime               int64
	hasSeq                 bool
	consumed, snapConsumed uint64
}

func (s *shard) mark() mark {
	return mark{s.counters(), s.lastSeq, s.lastTime, s.hasSeq, s.consumed, s.snapConsumed}
}

func (s *shard) reset(m mark) {
	s.eventsIn.Store(m.c.EventsIn)
	s.eventsShed.Store(m.c.EventsShed)
	s.processed.Store(m.c.Processed)
	s.matched.Store(m.c.Matched)
	s.restarts.Store(m.c.Restarts)
	s.quarantined.Store(m.c.Quarantined)
	s.pmCreatedBase, s.pmDroppedBase = m.c.BaseCreated, m.c.BaseDropped
	s.lastSeq, s.lastTime, s.hasSeq = m.lastSeq, m.lastTime, m.hasSeq
	s.consumed, s.snapConsumed = m.consumed, m.snapConsumed
}

// restore is the one way a shard takes on state it did not build live:
// boot, post-panic recovery, a handoff import and a ceded slot. It
// installs st (nil: none), replays tail's events above st's seq floor —
// seqs a Q record in marks quarantined skipped, matches an M record
// there says were delivered suppressed, at most limit events (-1: all) —
// and commits: the matches the replay
// completes anew are held, one snapshot counts them, and only then are
// they queued for the sink. They are inside that snapshot and in no M
// record, so no later recovery replays them. aboveLog floors the shard
// above everything in its log first: the log's records of the slot are
// history from an earlier ownership. A restore that does not commit (st
// rejected, a panic, an import whose commit snapshot fails) leaves the
// counters and the seq position as it found them; a failed import also
// leaves the engine empty, so the caller can retry it. A boot or
// post-panic commit that fails disables durability instead: the state is
// in memory, and availability wins, as for any failed log write.
func (s *shard) restore(st *checkpoint.ShardState, tail, marks []checkpoint.Record, kind restoreKind, limit int, aboveLog bool) error {
	if st != nil {
		if err := s.en.Restore(st.Engine); err != nil {
			return fmt.Errorf("shard %d: snapshot restore rejected: %w", s.id, err)
		}
	}
	// recovering stays set through a panic: the supervisor reads it to
	// leave the poison uncounted, since the restore counted nothing.
	s.recovering.Store(true)
	before := s.mark()
	committed := false
	defer func() {
		if !committed {
			s.reset(before)
		}
	}()

	// floor is the replay low-water mark: tail events at or below it are
	// already inside st. haveFloor tells "no floor" (no snapshot, or one
	// taken before any event arrived) from a floor of 0 — seqs start at
	// 0, so a zero sentinel would drop the stream's first event (and its
	// Q record) from every snapshot-less restore.
	var floor uint64
	haveFloor := false
	if st != nil {
		haveFloor, floor = st.HasSeq, st.LastSeq
		s.lastSeq, s.lastTime, s.hasSeq = st.LastSeq, st.LastTime, st.HasSeq
		if kind == restoreBoot {
			s.addCounters(st.Counters)
		}
		if len(st.Strategy) > 0 && st.StrategyName == s.strat.Name() {
			if ds, ok := s.strat.(shed.DurableStrategy); ok {
				if err := ds.UnmarshalState(st.Strategy); err != nil && s.cfg.Logf != nil {
					s.cfg.Logf("runtime: shard %d: strategy state rejected, keeping fresh: %v", s.id, err)
				}
			}
		}
	}
	wantCreated, wantDropped := s.pmCreatedBase, s.pmDroppedBase

	count := kind != restorePanic
	skips, suppress := indexTail(marks, haveFloor, floor)
	var held []engine.Match
	var replayed uint64
	s.consumed, s.snapConsumed = 0, 0
	for _, rec := range tail {
		if rec.Kind != checkpoint.RecEvent || (haveFloor && rec.Seq <= floor) {
			continue
		}
		if limit >= 0 && int(s.consumed) == limit {
			break
		}
		s.consumed++
		e := rec.Event
		// A quarantined event is not reprocessed, but it still advances the
		// seq high-water mark (a fresh event under a Q-recorded seq would be
		// skipped by every later replay) and owes its arrival.
		s.lastSeq, s.lastTime, s.hasSeq = e.Seq, int64(e.Time), true
		if count {
			s.eventsIn.Add(1)
		}
		if skips[e.Seq] {
			if count {
				s.quarantined.Add(1)
			}
			continue
		}
		s.curItem = item{e: e}
		replayed++
		if !s.strat.AdmitEvent(e, e.Time) {
			if count {
				s.eventsShed.Add(1)
			}
			continue
		}
		if s.cfg.BeforeProcess != nil {
			// Fault hooks fire in replay too: a deterministic poison event
			// panics again here, gets a Q record, and the next restore skips
			// it — the crash loop terminates.
			s.cfg.BeforeProcess(s.id, e)
		}
		s.res = s.en.Process(e)
		if count {
			s.processed.Add(1)
		}
		s.strat.Observe(&s.res, e.Time)
		for _, m := range s.res.Matches {
			_, delivered := slices.BinarySearch(suppress, m.Key())
			switch {
			case !delivered:
				held = append(held, m)
			case kind == restoreBoot:
				s.matched.Add(1)
			}
		}
		// No latency sample: the enqueue instant is long gone, so the
		// control step sees the surviving EWMA.
		s.control(e.Time, event.Time(math.Float64frombits(s.ewma.Load())))
	}
	s.curItem = item{}
	if kind == restorePanic {
		// The replayed engine re-counts creations/drops that the exported
		// counters already include; re-base so they resume where they
		// stopped.
		est := s.en.Stats()
		s.pmCreatedBase = saturatingSub(wantCreated, est.CreatedPMs)
		s.pmDroppedBase = saturatingSub(wantDropped, est.DroppedPMs)
	}

	s.matched.Add(uint64(len(held)))
	if s.ckpt != nil && (aboveLog || s.consumed > 0) {
		if aboveLog {
			if seq, ok := s.log.MaxSeq(); ok && (!s.hasSeq || seq > s.lastSeq) {
				s.lastSeq, s.hasSeq = seq, true
			}
		}
		if err := s.saveSnapshot(); err != nil {
			if kind == restoreImport {
				if !s.rebuild() {
					err = fmt.Errorf("%w; the shard could not be emptied for a retry", err)
				}
				s.recovering.Store(false)
				return err
			}
			if s.ckpt != nil { // a failed flush or floor publication already disabled it
				s.walFailed("restore snapshot", err)
			}
		}
	}
	committed = true
	for i := range held {
		s.queue(held[i])
	}
	s.walReplayed.Add(replayed)
	s.syncEngineStats()
	s.restoredSeq.Store(s.lastSeq)
	s.restoredTime.Store(s.lastTime)
	if s.hasSeq {
		s.restoredHasSeq.Store(true)
	}
	s.recovering.Store(false)
	return nil
}

// addCounters adds a snapshot's counters to the shard's.
func (s *shard) addCounters(c checkpoint.Counters) {
	s.eventsIn.Add(c.EventsIn)
	s.eventsShed.Add(c.EventsShed)
	s.processed.Add(c.Processed)
	s.matched.Add(c.Matched)
	s.restarts.Add(c.Restarts)
	s.quarantined.Add(c.Quarantined)
	s.pmCreatedBase += c.BaseCreated
	s.pmDroppedBase += c.BaseDropped
}

// indexTail collects a shard's Q records above the floor (seqs replay
// must skip: the poison-crash-loop breaker) and its M records' keys,
// sorted (matches already delivered: the duplicate-emission breaker) —
// a slice, not a set, because at boot every shard holds one at once.
func indexTail(recs []checkpoint.Record, haveFloor bool, floor uint64) (skips map[uint64]bool, suppress []string) {
	skips = map[uint64]bool{}
	for _, rec := range recs {
		switch rec.Kind {
		case checkpoint.RecSkip:
			if !haveFloor || rec.Seq > floor {
				skips[rec.Seq] = true
			}
		case checkpoint.RecMatch:
			suppress = append(suppress, rec.Key)
		}
	}
	slices.Sort(suppress)
	return skips, suppress
}

// finish runs when the input queue closes and drains. A clean drain
// takes a final snapshot (so a graceful shutdown restarts with zero WAL
// replay) and closes the store; a Kill abandons the buffered WAL tail
// unflushed — that is the crash being simulated.
func (s *shard) finish() {
	s.settleSnapshot(true)
	if s.ckpt != nil {
		if s.rt.killed.Load() {
			s.releaseDurable()
			s.ckpt.Abort()
			return
		}
		// Settle any open flush group before the final snapshot; the drain
		// normally leaves pend empty, but a direct finish must not strand a
		// held match.
		if len(s.pend) > 0 {
			if err := s.ckpt.Flush(); err != nil {
				s.walFailed("flush", err)
			} else {
				s.releasePend()
			}
		}
	}
	if s.ckpt != nil {
		if s.exported {
			// The shipped state is authoritative now; a final snapshot here
			// would advance the local files past it and a restart would
			// replay history another node owns. The WAL already holds
			// everything up to the freeze.
			s.ckpt.Close()
		} else {
			// A failed final save (logged by settleSnapshot; a panic in the
			// encode or the write is one too) costs one snapshot: the log
			// holds everything, so the next boot replays it under match
			// suppression instead of restoring warm. An abandoned tmp file
			// is what the write-rename protocol already tolerates.
			_ = s.saveSnapshot()
			if s.ckpt != nil { // a failed flush disabled durability
				s.ckpt.Close()
			}
		}
	}
	s.en.Flush()
	s.syncEngineStats()
}

// record adds one wall-clock latency sample (now minus the event's
// enqueue instant) to the histogram and the EWMA, returning the updated
// smoothed latency as virtual time (both are nanoseconds, so the unit
// maps 1:1). Taking enq instead of a duration lets one clock read serve
// both the sample and the lastNs staleness stamp.
func (s *shard) record(enq time.Time) event.Time {
	now := time.Now()
	ns := now.Sub(enq).Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	s.hist.Record(event.Time(ns))
	prev := math.Float64frombits(s.ewma.Load())
	sm := smoothWeight*float64(ns) + (1-smoothWeight)*prev
	s.ewma.Store(math.Float64bits(sm))
	s.lastNs.Store(now.UnixNano())
	return event.Time(sm)
}

func (s *shard) snapshot() ShardSnapshot {
	// depth first: inHand is set before depth falls, so this order never
	// reads both after the fall and before the hand-out.
	depth := int(s.depth.Load())
	if depth < 0 {
		depth = 0
	}
	if s.inHand.Load() {
		depth++
	}
	var plan shed.PlanStats
	if pr, ok := s.planRep.Load().(shed.PlanReporter); ok {
		plan = pr.PlanStats()
	}
	return ShardSnapshot{
		Shard:      s.id,
		Strategy:   s.stratName.Load().(string),
		QueueDepth: depth,
		QueueCap:   s.cfg.QueueLen,

		EventsIn:        s.eventsIn.Load(),
		EventsShed:      s.eventsShed.Load(),
		EventsProcessed: s.processed.Load(),
		Matches:         s.matched.Load(),

		LivePMs:    s.livePMs.Load(),
		CreatedPMs: s.createdPMs.Load(),
		DroppedPMs: s.droppedPMs.Load(),

		Restarts:    s.restarts.Load(),
		Quarantined: s.quarantined.Load(),
		Failed:      s.failed.Load(),
		Exported:    s.exportedFlag.Load(),
		BusyNs:      s.busyNs.Load(),

		AdmissionNs:     s.admitNs.Load(),
		AdaptFolds:      plan.AdaptFolds,
		PlansBuilt:      plan.PlansBuilt,
		PlansApplied:    plan.PlansApplied,
		PlansStale:      plan.PlansStale,
		PlanBuildNsLast: plan.BuildNsLast,
		PlanBuildNsMax:  plan.BuildNsMax,
		ShedStallMaxNs:  plan.StallNsMax,
		ClassBuckets:    s.classBuckets.Load(),
		ClassLivePMs:    s.classLive.Load(),
		ClassDeadPMs:    s.classDead.Load(),
		IndexVisited:    s.indexVisited.Load(),
		IndexPruned:     s.indexPruned.Load(),

		Recovering:     s.recovering.Load(),
		Snapshots:      s.snapshots.Load(),
		SnapPauseMaxNs: s.snapPauseMax.Load(),
		SnapshotBytes:  s.snapBytes.Load(),
		SnapshotUnixNs: s.snapUnixNs.Load(),
		WALReplayed:    s.walReplayed.Load(),
		ColdStarts:     s.coldStarts.Load(),
		WALErrors:      s.walErrors.Load(),

		SmoothedLatency: time.Duration(math.Float64frombits(s.ewma.Load())),
		P50:             time.Duration(s.hist.Quantile(0.50)),
		P95:             time.Duration(s.hist.Quantile(0.95)),
		P99:             time.Duration(s.hist.Quantile(0.99)),
		MeanLatency:     time.Duration(s.hist.Mean()),
		MaxLatency:      time.Duration(s.hist.Max()),
	}
}
