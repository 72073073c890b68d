// Package runtime is the sharded, concurrent streaming runtime: the
// bridge between the deterministic virtual-time reproduction and a
// wall-clock online system. Events are partitioned by correlation key
// across N shards; each shard owns an independent engine instance plus
// its own shedding strategy and is fed through a bounded queue, so
// queue depth is real backpressure rather than a simulated queueing
// model. Each shard measures wall-clock queueing-plus-service latency,
// smooths it with an EWMA at w = 0.5 (the paper smooths μ(k) with a
// sliding mean, which the virtual-time runner keeps; w = 0.5 is the
// paper's cost-model adaptation weight, borrowed here), and hands the
// smoothed value to the strategy's control step — the same ρI/ρS control
// loop the virtual-time runner drives, now running against the hardware
// clock.
//
// With Shards = 1 the runtime degenerates to the sequential engine:
// events are processed in arrival order by one goroutine and the match
// set is identical to engine.Sequential — the determinism cross-check
// the tests enforce. With more shards, any query whose matches are
// connected by an equality predicate on one attribute (a.ID = b.ID = …)
// partitions exactly: all events of one key land on one shard, so the
// merged match set is again identical. Count windows are the exception —
// they expire on global sequence distance, which partitioning stretches;
// see docs/RUNTIME.md.
//
// Two robustness layers wrap the shards (docs/ROBUSTNESS.md): a
// supervisor that recovers worker panics, quarantines poison events to a
// dead-letter queue, and fails a persistent offender, whose key range
// the door then refuses (supervisor.go); and a graceful-degradation
// ladder that extends the paper's "degrade quality, not latency"
// contract from the strategy level (ρI/ρS) up to the admission edge —
// first a tighter bound for every shard's strategy, then outright load
// rejection at the door — driven by the same smoothed latency signal
// against the bound θ and by queue fill.
//
// A tighter bound is the runtime's one lever on what gets shed: each
// shard hands its strategy lat/(1−x) instead of lat, which for every
// strategy here is running against θ·(1−x). x is the larger of the
// ladder's fill ramp and the excess fraction the registry's cross-query
// arbiter sets (SetExcess). The strategy's own selection — ρI/ρS over
// cost-model classes for Hybrid — then decides what goes.
package runtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
)

// Degradation ladder levels, escalating with overload. Transitions are
// driven by the EWMA latency signal against Config.Bound and by
// aggregate queue fill; with Bound = 0 the ladder is disabled and the
// level stays LevelNormal.
const (
	// LevelNormal: smoothed latency under θ; nothing is degraded.
	LevelNormal = iota
	// LevelShedding: latency over θ; the per-shard strategies are
	// expected to be shedding (ρI/ρS). The runtime itself changes
	// nothing — this level makes strategy-driven degradation observable.
	LevelShedding
	// LevelAdmission: queues past the high-water mark (or latency far
	// over θ); every shard's strategy runs against θ·(1−x), x ramping
	// with queue fill. The door still admits everything.
	LevelAdmission
	// LevelReject: queues near capacity (or latency an order of
	// magnitude over θ); every offer is rejected so the backlog can
	// drain. Servers surface this as 429/NACK.
	LevelReject
)

// ladderStale is how long a shard's smoothed latency stays authoritative
// for the ladder after its last sample. A shard with an empty queue and
// no samples for this long contributes zero — otherwise a high EWMA
// frozen at the moment input stopped would wedge the ladder at a high
// level with no traffic left to decay it.
const ladderStale = 500 * time.Millisecond

// smoothWeight is the EWMA weight w applied to new latency samples,
// smoothed = w·sample + (1−w)·smoothed. The value is the paper's §V-B
// cost-model adaptation weight; the paper's own latency smoothing is a
// sliding mean (DESIGN.md §3.2).
const smoothWeight = 0.5

// Ladder water marks, as fractions of aggregate queue capacity in use:
// from highWater on, LevelAdmission tightens every shard's bound by an
// excess fraction that ramps to maxLadderExcess at rejectWater; from
// rejectWater on, LevelReject refuses all input.
const (
	highWater       = 0.75
	rejectWater     = 0.95
	maxLadderExcess = 0.9
)

// fillRamp maps a queue fill to the ladder's excess fraction: 0 up to
// highWater, rising linearly to maxLadderExcess at rejectWater, capped
// there beyond.
func fillRamp(fill float64) float64 {
	if fill <= highWater {
		return 0
	}
	return min((fill-highWater)/(rejectWater-highWater)*maxLadderExcess, maxLadderExcess)
}

// MaxExcess caps any excess fraction x: a strategy always runs against
// at least 5% of its bound, so latency keeps a target it can meet.
const MaxExcess = 0.95

// Config configures a Runtime.
type Config struct {
	// Shards is the number of engine shards (default 1). A shard is the
	// unit of STATE: a single-writer engine partition with its own queue,
	// strategy, and (when durable) snapshots.
	Shards int
	// QueueLen is the per-shard queue capacity in batches (default 1024).
	// An Offer that finds more than QueueLen batches queued ahead of its
	// own waits for the worker to catch up: backpressure propagates to the
	// producer instead of growing an unbounded buffer.
	QueueLen int
	// Costs calibrates the engines' virtual work accounting (zero value:
	// engine.DefaultCosts()). Virtual work is still tracked per event so
	// strategies that charge shedding overhead keep functioning, but
	// latency fed to the control loop is wall-clock.
	Costs engine.Costs
	// KeySalt perturbs the hash of the partition key (InferPartitionKey;
	// without one, events spread by seq — exact only for Shards = 1),
	// rekeying shard ownership from `key` to `(salt, key)`. A registry sets
	// it to the query fingerprint so the same correlation key lands on
	// different shard indices for different queries — one hot key cannot
	// pile every query's work onto the same worker. Zero (the
	// single-query default) leaves the hash untouched.
	KeySalt uint64
	// NewStrategy builds the per-shard shedding strategy (nil strategy /
	// nil factory: no shedding). Each shard needs its OWN instance:
	// strategies are stateful and are only ever called by the single
	// worker currently servicing the shard. The supervisor calls the
	// factory again when it rebuilds a shard after a panic.
	NewStrategy func(shard int) shed.Strategy
	// DeferredNegation selects witness-based negation semantics.
	DeferredNegation bool
	// OnMatches, when set, receives the matches a shard cleared for
	// delivery since its previous call, in detection order, from the
	// worker holding the shard: once per drained batch that produced any,
	// and before the worker lets go of the shard. It is never entered
	// concurrently for one shard but must tolerate concurrent calls from
	// different shards; ms is valid only during the call.
	OnMatches func(shard int, ms []engine.Match)

	// Bound is the wall-clock latency bound θ driving the degradation
	// ladder. Zero disables the ladder (the level stays LevelNormal and
	// admission control never engages); the per-shard strategies still
	// run whatever bound they were built with.
	Bound time.Duration
	// Restart tunes the shard supervisor's backoff and circuit breaker;
	// zero value: defaults (see RestartPolicy).
	Restart RestartPolicy
	// BeforeProcess, when set, runs on the worker servicing the shard,
	// after ρI admission and immediately before the engine processes the
	// event.
	// It exists for fault injection (internal/fault): it may panic or
	// sleep, and the supervisor treats either as it would a real fault.
	BeforeProcess func(shard int, e *event.Event)
	// Logf receives supervisor and ladder lifecycle messages (restarts,
	// breaker trips, level transitions). Nil: silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.Costs == (engine.Costs{}) {
		c.Costs = engine.DefaultCosts()
	}
	c.Restart = c.Restart.withDefaults()
	return c
}

// Runtime is a running sharded CEP pipeline. Create with New, feed with
// Offer (single producer, or multiple producers that tolerate per-shard
// interleaving), and stop with Close.
type Runtime struct {
	cfg    Config
	shards []*shard
	key    func(*event.Event) uint64

	pool    *Pool          // services the shards (workers.go)
	ownPool bool           // pool is New's private one, which Close stops
	steals  atomic.Uint64  // this runtime's quanta run by a non-home worker
	done    sync.WaitGroup // shards not yet retired

	dlq               DeadLetterRing
	level             atomic.Int32
	admissionRejected atomic.Uint64
	failedShards      atomic.Int32 // shards the breaker failed; the door's fast path reads it
	x                 excess       // shared by every shard; see tighten

	// Durability plumbing (inert without a log): fp binds checkpoints to
	// this query/sharding configuration, dur is the shards' store config
	// (the log's own, in the query's state directory; nil without a log),
	// recoverWG releases WaitRecovered once every shard has finished (or
	// skipped) recovery, and killed switches Close into Kill's
	// crash-simulation mode.
	fp        uint64
	dur       *checkpoint.Config
	recoverWG sync.WaitGroup
	killed    atomic.Bool

	// log is the input log the shards' records live in. It belongs to the
	// caller of NewShared, which appends each event and pushes it onto its
	// shard queues under one lock, so that log order is every shard's
	// queue order (queue.go).
	log    *checkpoint.Log
	closed atomic.Bool
}

// New builds and starts a runtime without durability for a compiled
// machine on a private worker pool (min(GOMAXPROCS, Shards) workers)
// that Close stops; the runtime is ready for Offer.
func New(m *nfa.Machine, cfg Config) *Runtime { return NewShared(m, cfg, nil, nil, "", nil) }

// NewShared builds a runtime served by its caller's worker pool (the
// registry's, one per process; nil: a private one, as for New) and, when
// log is non-nil, durable on that log, which belongs to the caller: every
// shard snapshots its full state (live partial matches, counters,
// strategy state) into dir every EveryEvents events of the log's config,
// and the events in between sit in the log, so a crash or restart loses
// at most one log flush interval of work instead of every open partial
// match (docs/DURABILITY.md). The caller appends every event to the log
// and offers it through Gate, Claim and Deliver, advancing the log's
// routed watermark under the lock that orders its appends and claims
// (Offer bypasses the log); it ends the log's boot (EndBoot) once
// WaitRecovered returns, and closes or aborts the log after Close or
// Kill. The shards' records are tagged with Config.KeySalt (the
// registry's query fingerprint); a shard replays the log's untagged
// events that accept admits and its key hashes to it, and nothing at all
// when accept is nil. A shard whose store cannot be opened runs without
// durability (logged), never fails to start.
func NewShared(m *nfa.Machine, cfg Config, pool *Pool, log *checkpoint.Log, dir string, accept func(*event.Event) bool) *Runtime {
	cfg = cfg.withDefaults()
	r := &Runtime{
		cfg:  cfg,
		key:  keyByAttr(InferPartitionKey(m.Query), cfg.KeySalt),
		pool: pool,
		log:  log,
	}
	if pool == nil {
		r.pool, r.ownPool = NewPool(), true
	}
	r.done.Add(cfg.Shards)
	if log != nil {
		dur := log.Config()
		dur.Dir = dir
		r.dur = &dur
		r.fp = checkpoint.Fingerprint(
			m.Query.String(),
			fmt.Sprintf("shards=%d", cfg.Shards),
			fmt.Sprintf("defneg=%v", cfg.DeferredNegation),
		)
		if st, err := checkpoint.LoadDeadLetters(dir); err != nil {
			r.logf("runtime: dead-letter checkpoint unreadable, starting empty: %v", err)
		} else {
			r.dlq.Seed(st)
		}
		r.recoverWG.Add(cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, m, cfg)
		sh.log = log
		if log != nil {
			var routes func(*event.Event) bool // nil: replay nothing
			if slot := i; accept != nil {
				routes = func(e *event.Event) bool { return accept(e) && r.ShardIndexFor(e) == slot }
			}
			want := func() {
				sh.covWant.Store(true)
				r.pool.wakeOne()
			}
			store, err := log.Store(*r.dur, i, r.fp, checkpoint.Tag{FP: cfg.KeySalt, Shard: i}, routes, want)
			if err != nil {
				// A shard must start even when its store cannot: durability
				// degrades, availability does not.
				r.logf("runtime: shard %d: checkpoint store unavailable, running without durability: %v", i, err)
			} else {
				sh.ckpt = store
				sh.needRecover = true
				sh.needRecoverFlag.Store(true)
				// bootPending distinguishes the first (boot) recovery — which
				// resumes the snapshot's counters — from post-panic rebuilds;
				// it stays true across boot-replay panics so a retry still
				// restores the boot way.
				sh.bootPending = true
			}
			owner := i
			sh.recoverDone = r.recoverWG.Done
			sh.saveDLQ = func() { r.saveDeadLetters(owner) }
		}
		sh.rt = r
		r.shards = append(r.shards, sh)
	}
	r.pool.register(r)
	return r
}

// WaitRecovered blocks until every shard has finished restoring its
// snapshot and replaying its WAL tail (immediately without durability).
// Servers call this before accepting traffic so recovery is not racing
// live input for the worker goroutine.
func (r *Runtime) WaitRecovered() { r.recoverWG.Wait() }

// Recovering reports whether any shard is still inside its
// restore-and-replay phase.
func (r *Runtime) Recovering() bool {
	for _, sh := range r.shards {
		if sh.recovering.Load() {
			return true
		}
	}
	return false
}

// RecoveryInfo summarises what boot recovery restored.
type RecoveryInfo struct {
	// Restored reports that at least one shard recovered a sequence floor
	// (snapshot or WAL event). Producers must gate seq resumption on this,
	// not on MaxSeq > 0 — sequence numbers start at 0, so MaxSeq == 0 is
	// ambiguous between "nothing restored" and "restored through seq 0".
	Restored bool `json:"restored"`
	// MaxSeq / MaxTime are the highest restored input sequence number and
	// event time across shards; producers resume numbering above MaxSeq
	// when Restored is true.
	MaxSeq  uint64 `json:"max_seq"`
	MaxTime int64  `json:"max_time"`
	// WALReplayed counts events replayed from WAL tails; ColdStarts counts
	// shards that fell back to an empty engine.
	WALReplayed uint64 `json:"wal_replayed"`
	ColdStarts  uint64 `json:"cold_starts"`
}

// RecoveryInfo reports the post-recovery floor; meaningful after
// WaitRecovered returns.
func (r *Runtime) RecoveryInfo() RecoveryInfo {
	var info RecoveryInfo
	for _, sh := range r.shards {
		if sh.restoredHasSeq.Load() {
			info.Restored = true
		}
		if seq := sh.restoredSeq.Load(); seq > info.MaxSeq {
			info.MaxSeq = seq
		}
		if t := sh.restoredTime.Load(); t > info.MaxTime {
			info.MaxTime = t
		}
		info.WALReplayed += sh.walReplayed.Load()
		info.ColdStarts += sh.coldStarts.Load()
	}
	return info
}

// LoadStats is the cheap load summary the cross-query arbiter polls
// every tick: monotone counters. Reading it touches a handful of atomics
// per shard — no histogram quantiles, no per-shard snapshot structs.
type LoadStats struct {
	// BusyNs is cumulative worker service time across shards; the delta
	// between two polls over the wall interval is the utilization this
	// query costs the process.
	BusyNs int64
	// EventsIn/EventsShed/Processed/Matches are the aggregate monotone
	// counters (same meaning as Snapshot's).
	EventsIn   uint64
	EventsShed uint64
	Processed  uint64
	Matches    uint64
}

// LoadStats gathers the arbiter's poll cheaply; safe from any goroutine.
func (r *Runtime) LoadStats() LoadStats {
	var st LoadStats
	for _, sh := range r.shards {
		st.BusyNs += sh.busyNs.Load()
		st.EventsIn += sh.eventsIn.Load()
		st.EventsShed += sh.eventsShed.Load()
		st.Processed += sh.processed.Load()
		st.Matches += sh.matched.Load()
	}
	return st
}

// Kill simulates a crash for tests: shards stop touching the engine and
// the log, and no final snapshot is taken; with the log's owner then
// aborting it (buffered records abandoned unflushed), that is exactly
// the on-disk state a SIGKILL would leave. The shards still drain their
// queues, discarding what they pop.
func (r *Runtime) Kill() {
	r.killed.Store(true)
	r.Close()
}

// saveDeadLetters checkpoints the runtime-wide dead-letter ring when
// durable. Every durable shard calls it after its own snapshot, and a
// shard's quarantine right away: quarantines are rare and each letter is
// exactly the record a postmortem needs, so a SIGKILL right after a
// poison event must not lose the evidence. Last writer wins, which is
// fine — the ring is shared state and any recent copy serves the
// postmortem. owner only namespaces the temp file; callers on distinct
// goroutines must pass distinct values.
func (r *Runtime) saveDeadLetters(owner int) {
	if r.dur == nil {
		return
	}
	if err := checkpoint.SaveDeadLetters(r.dur.Dir, owner, r.dlq.State(), r.dur.Fsync); err != nil {
		r.logf("runtime: dead-letter checkpoint failed: %v", err)
	}
}

// NumShards returns the shard count.
func (r *Runtime) NumShards() int { return len(r.shards) }

// Fingerprint returns the checkpoint fingerprint binding this runtime's
// durable state to its query text and sharding configuration; zero
// without durability.
func (r *Runtime) Fingerprint() uint64 { return r.fp }

func (r *Runtime) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// offer is the runtime's own entry point, the sequence a registry runs
// too: the Gate, then Claim (split and push), then Deliver (wait for
// room) — the chain it is the last link of: docs/ROBUSTNESS.md. One
// clock read and one ladder update cover the call. At LevelReject or
// after Close every event is refused, and an event whose key hashes to
// a failed shard always is; the rest go to the shards their keys hash
// to. Refusals count in Snapshot.AdmissionRejected. A lone event
// travels as batch{one:} — no slice, no pool round trip; a longer
// call's events reach each shard as one queued batch, in order. A
// batch pushed onto a queue already holding QueueLen batches makes the
// caller wait for room — that IS the backpressure signal; overload is
// shed by the ladder and the strategies, never by the queue. One batch
// may briefly push a shard's queued-event count past QueueLen (the
// queue bounds batches, not events); the ladder's fill signal sees that
// surplus, which errs toward shedding earlier, never later. Returns the
// number accepted.
func (r *Runtime) offer(events []*event.Event) int {
	if len(events) == 0 {
		return 0 // everything was shed upstream: not worth a ladder update
	}
	enq := time.Now() // also the ladder's staleness reference
	g := r.Gate(enq)
	kept := events[:0]
	for _, e := range events {
		if g.Admits(-1, e) {
			kept = append(kept, e)
		}
	}
	g.Done()
	if len(kept) == 0 {
		return 0
	}
	var fixed [16]claimPart // the call's parts, on the stack for up to 16 shards
	parts := r.split(fixed[:0], kept, nil, enq)
	return r.deliver(parts, enqueue(parts))
}

// Offer routes the event to its shard, waiting while that shard's queue
// is over QueueLen, and reports whether the door accepted it (see
// offer); it is safe to race against Close.
func (r *Runtime) Offer(e *event.Event) bool { return r.offer([]*event.Event{e}) == 1 }

// OfferBatch is Offer for a slice of events, each routed by its key;
// it returns how many were accepted. The door filters events in place
// when it refuses some; callers must own the slice.
func (r *Runtime) OfferBatch(events []*event.Event) int { return r.offer(events) }

// Gate is the door's state for one batch: the ladder is refreshed once,
// when the gate opens, and Admits then rules on each (event, target)
// pair. Done counts the refusals in Snapshot.AdmissionRejected.
type Gate struct {
	r       *Runtime
	shut    bool // closed, or at LevelReject: every pair is refused
	failed  bool // some shard has failed: each pair's target is checked
	refused int
}

// Gate refreshes the degradation ladder and opens the door for one batch.
func (r *Runtime) Gate(now time.Time) Gate {
	return Gate{
		r:      r,
		shut:   r.closed.Load() || r.updateLevel(now) >= LevelReject,
		failed: r.failedShards.Load() > 0, // one load per batch while every shard is healthy
	}
}

// Admits reports whether the door admits e to target shard slot (< 0:
// the shard its key hashes to): never at LevelReject or after Close,
// and never to a shard that does not exist or has failed.
func (g *Gate) Admits(slot int, e *event.Event) bool {
	ok := !g.shut && slot < len(g.r.shards)
	if ok && g.failed {
		if slot < 0 {
			slot = g.r.ShardIndexFor(e)
		}
		ok = !g.r.shards[slot].failed.Load()
	}
	if !ok {
		g.refused++
	}
	return ok
}

// Done counts the gate's refusals in Snapshot.AdmissionRejected and
// returns how many there were.
func (g *Gate) Done() int {
	if g.refused > 0 {
		g.r.admissionRejected.Add(uint64(g.refused))
	}
	n := g.refused
	g.refused = 0
	return n
}

// ladderSignals gathers the two inputs of the ladder: the worst
// effective smoothed latency across shards (stale signals of drained
// shards decay to zero, see ladderStale) and the aggregate queue fill.
func (r *Runtime) ladderSignals(at time.Time) (maxEwma, fill float64) {
	now := at.UnixNano()
	var depth, capTot int
	for _, sh := range r.shards {
		d := int(sh.depth.Load())
		if d < 0 {
			d = 0
		}
		depth += d
		capTot += r.cfg.QueueLen
		ew := math.Float64frombits(sh.ewma.Load())
		if d == 0 && now-sh.lastNs.Load() > int64(ladderStale) {
			ew = 0
		}
		if ew > maxEwma {
			maxEwma = ew
		}
	}
	if capTot > 0 {
		fill = float64(depth) / float64(capTot)
	}
	return maxEwma, fill
}

// levelFor maps the signals to a ladder level. scale < 1 tightens every
// threshold, which is how updateLevel implements de-escalation
// hysteresis: leaving a level requires the signals to clear the scaled
// (easier to trip) thresholds too.
func (r *Runtime) levelFor(maxEwma, fill, scale float64) int {
	theta := float64(r.cfg.Bound.Nanoseconds()) * scale
	lvl := LevelNormal
	if maxEwma > theta {
		lvl = LevelShedding
	}
	if fill >= highWater*scale || maxEwma > 4*theta {
		lvl = LevelAdmission
	}
	if fill >= rejectWater*scale || maxEwma > 8*theta {
		lvl = LevelReject
	}
	return lvl
}

// updateLevel recomputes the ladder level with hysteresis: escalation is
// immediate, de-escalation requires the signals to clear thresholds
// tightened by 30% so the level doesn't flap around a boundary. It also
// sets the ladder's excess fraction: the fill ramp from LevelAdmission
// on, zero below. With Bound = 0 there is no ladder and it costs one
// comparison.
func (r *Runtime) updateLevel(now time.Time) int {
	if r.cfg.Bound <= 0 {
		return LevelNormal
	}
	maxEwma, fill := r.ladderSignals(now)
	raw := r.levelFor(maxEwma, fill, 1.0)
	cur := int(r.level.Load())
	next := raw
	if raw < cur {
		if hold := r.levelFor(maxEwma, fill, 0.7); hold < cur {
			next = hold
		} else {
			next = cur
		}
	}
	if next != cur && r.level.CompareAndSwap(int32(cur), int32(next)) {
		r.logf("runtime: degradation level %d -> %d (ewma=%s fill=%.2f)",
			cur, next, time.Duration(maxEwma), fill)
	}
	x := 0.0
	if next >= LevelAdmission {
		x = fillRamp(fill)
	}
	r.x.ladder.set(x)
	return next
}

// DegradationLevel returns the current ladder level (refreshed from the
// live signals, so it de-escalates even when no offers arrive).
func (r *Runtime) DegradationLevel() int { return r.updateLevel(time.Now()) }

// SetExcess sets the excess fraction x the cross-query arbiter imposes
// on this runtime, clamped to [0, MaxExcess]: from the next control step on,
// every shard's strategy runs against θ·(1−x) unless the ladder asks for
// more. Safe from any goroutine.
func (r *Runtime) SetExcess(x float64) { r.x.arbiter.set(min(max(x, 0), MaxExcess)) }

// Excess returns the x the shards currently apply: the larger of the
// arbiter's and the ladder's.
func (r *Runtime) Excess() float64 { return r.x.load() }

// DeadLetters returns a copy of the retained dead letters, oldest first.
// The ring keeps the latest 256; Snapshot.Quarantined counts every
// dead letter ever recorded.
func (r *Runtime) DeadLetters() []DeadLetter { return r.dlq.Letters() }

// shardFor resolves the shard an offer goes to: slot, or for slot < 0
// the one the event's key hashes to.
func (r *Runtime) shardFor(slot int, e *event.Event) *shard {
	if slot < 0 {
		slot = r.ShardIndexFor(e)
	}
	return r.shards[slot]
}

// Close drains the runtime gracefully: the shard queues refuse further
// pushes, every shard finishes its queued events (emitting any final
// matches they complete), engines flush their remaining state, and the
// shards leave the worker pool (a private pool stops). Close is
// idempotent and safe to call while producers are still offering — what
// they pushed first is processed, later pushes are rejected, and waiting
// producers return.
func (r *Runtime) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		r.done.Wait()
		return
	}
	for _, sh := range r.shards {
		sh.q.wake(true)
	}
	// Wake every worker so none stays blocked on the pool's tokens with no
	// producer left to send them; they observe the closed queues.
	r.pool.wakeAll()
	r.done.Wait()
	r.pool.unregister(r)
	if r.ownPool {
		r.pool.Stop()
	}
}

// ShardSnapshot is the point-in-time state of one shard.
type ShardSnapshot struct {
	Shard    int    `json:"shard" prom:"shard,label"`
	Strategy string `json:"strategy"`
	// QueueDepth counts queued events, plus one while the worker still
	// holds matches of consumed events not yet handed to OnMatches: 0
	// means drained and delivered.
	QueueDepth int `json:"queue_depth" prom:"cepshed_queue_depth,gauge,Events waiting in the shard queue."`
	QueueCap   int `json:"queue_cap"`

	EventsIn        uint64 `json:"events_in" prom:"cepshed_events_in_total,counter,Events offered to the shard."`
	EventsShed      uint64 `json:"events_shed" prom:"cepshed_events_shed_total,counter,Events discarded by input-based shedding (rho_I)."`
	EventsProcessed uint64 `json:"events_processed" prom:"cepshed_events_processed_total,counter,Events processed by the engine."`
	Matches         uint64 `json:"matches" prom:"cepshed_matches_total,counter,Complete matches detected."`

	LivePMs    int64  `json:"live_partial_matches" prom:"cepshed_live_partial_matches,gauge,Live partial matches in the shard engine."`
	CreatedPMs uint64 `json:"created_partial_matches" prom:"cepshed_partial_matches_created_total,counter,Partial matches created."`
	DroppedPMs uint64 `json:"dropped_partial_matches" prom:"cepshed_partial_matches_dropped_total,counter,Partial matches removed by state-based shedding (rho_S)."`

	Restarts    uint64 `json:"restarts" prom:"cepshed_shard_restarts_total,counter,Supervisor restarts after a worker panic."`
	Quarantined uint64 `json:"quarantined" prom:"cepshed_shard_quarantined_total,counter,Events quarantined to the dead-letter queue by this shard."`
	Failed      bool   `json:"failed" prom:"cepshed_shard_failed,gauge,1 when the circuit breaker marked the shard permanently failed."`
	// Exported marks a slot frozen by shard migration: its state was
	// handed to another node and stray arrivals are quarantined.
	Exported bool `json:"exported,omitempty"`

	// BusyNs is cumulative wall time the worker spent servicing batches
	// (queue waiting excluded); ΔBusyNs/Δwall is the shard's utilization.
	BusyNs int64 `json:"busy_ns"`

	// Shed decision path. AdmissionNs is (sampled, extrapolated) wall
	// time spent in ρI admission decisions. The Plan* counters come from
	// the strategy's PlanReporter when it has one (the async shed
	// planner): plans built by the planner goroutine, applied by the
	// worker, or discarded on the drop-epoch fence; build times; and the
	// worst worker pause a shedding trigger caused. ClassBuckets/
	// ClassLivePMs/ClassDeadPMs are the engine's class-bucket index
	// occupancy (the structure bucketed drops and population snapshots
	// read), published at batch boundaries. AdaptFolds counts the
	// online-adaptation epochs the strategy folded into its cost model.
	// IndexVisited/IndexPruned are the engine's dispatch-index work
	// (engine.IndexStats): entries events ran predicates against, and
	// live entries skipped because their equi-join key differed.
	AdmissionNs     int64  `json:"admission_ns" prom:"cepshed_admission_ns_total,counter,Sampled wall-clock nanoseconds spent in AdmitEvent (extrapolated from every 64th event)."`
	AdaptFolds      uint64 `json:"adapt_folds" prom:"cepshed_adapt_folds_total,counter,Online-adaptation epochs folded into the cost model (one per window/slices of event time)."`
	PlansBuilt      uint64 `json:"shed_plans_built" prom:"cepshed_shed_plans_built_total,counter,Shedding plans built by the async planner goroutine."`
	PlansApplied    uint64 `json:"shed_plans_applied" prom:"cepshed_shed_plans_applied_total,counter,Planner plans applied by the worker."`
	PlansStale      uint64 `json:"shed_plans_stale" prom:"cepshed_shed_plans_stale_total,counter,Planner plans discarded by the drop-epoch fence (population retired before apply)."`
	PlanBuildNsLast int64  `json:"shed_plan_build_ns_last" prom:"cepshed_shed_plan_build_seconds,gauge,Wall-clock duration of the planner's most recent off-worker plan build."`
	PlanBuildNsMax  int64  `json:"shed_plan_build_ns_max" prom:"cepshed_shed_plan_build_seconds_max,gauge,Longest off-worker plan build observed."`
	ShedStallMaxNs  int64  `json:"shed_stall_max_ns" prom:"cepshed_shed_stall_seconds_max,gauge,Worst worker pause a shedding trigger caused (snapshot chunk, plan apply, or drop chunk)."`
	ClassBuckets    int64  `json:"class_buckets" prom:"cepshed_class_buckets,gauge,Live (state, class) buckets in the engine's partial-match index."`
	ClassLivePMs    int64  `json:"class_live_pms" prom:"cepshed_class_live_pms,gauge,Live partial matches tracked by the class-bucket index."`
	ClassDeadPMs    int64  `json:"class_dead_pms" prom:"cepshed_class_dead_pms,gauge,Dead entries awaiting bucket compaction (lazy-retirement debt)."`
	IndexVisited    uint64 `json:"index_visited" prom:"cepshed_index_visited_total,counter,Partial-match index entries events were dispatched to (predicates ran)."`
	IndexPruned     uint64 `json:"index_pruned" prom:"cepshed_index_pruned_total,counter,Live index entries skipped because their equi-join key differs from the event's."`

	// Durability state; all zero when the shard runs without a
	// checkpoint store.
	Recovering bool   `json:"recovering"`
	Snapshots  uint64 `json:"snapshots" prom:"cepshed_snapshots_total,counter,Checkpoint snapshots taken by the shard."`
	// SnapPauseMaxNs is the worst pause the snapshot protocol has
	// inflicted on this shard's serving thread: capture + finalize
	// (flush, floor publication); encode and write run off-thread.
	SnapPauseMaxNs int64  `json:"snap_pause_max_ns"`
	SnapshotBytes  int64  `json:"snapshot_bytes" prom:"cepshed_snapshot_bytes,gauge,Size of the shard's last checkpoint snapshot."`
	SnapshotUnixNs int64  `json:"snapshot_unix_ns"`
	WALReplayed    uint64 `json:"wal_replayed" prom:"cepshed_wal_replayed_total,counter,Events replayed from the WAL during recovery."`
	ColdStarts     uint64 `json:"cold_starts" prom:"cepshed_recovery_cold_starts_total,counter,Recoveries that fell back to an empty engine."`
	// WALErrors counts WAL append/flush failures; the first one disables
	// durability for the shard (loudly), so any nonzero value means the
	// exactly-once contract no longer holds across a restart.
	WALErrors uint64 `json:"wal_errors" prom:"cepshed_wal_errors_total,counter,WAL append/flush failures; the first disables the shard's durability."`

	SmoothedLatency time.Duration `json:"smoothed_latency_ns" prom:"cepshed_smoothed_latency_seconds,gauge,EWMA-smoothed wall-clock latency driving the shedder."`
	P50             time.Duration `json:"p50_ns"`
	P95             time.Duration `json:"p95_ns"`
	P99             time.Duration `json:"p99_ns"`
	MeanLatency     time.Duration `json:"mean_latency_ns"`
	MaxLatency      time.Duration `json:"max_latency_ns"`
}

// Snapshot is the aggregate point-in-time state of the runtime; all
// counters are monotone except queue depths, live partial matches,
// latency statistics, and the degradation level.
type Snapshot struct {
	Shards []ShardSnapshot `json:"shards"`

	// Workers is the size of the pool serving the runtime (under a
	// registry, the process-wide one); Steals counts this runtime's quanta
	// a non-home worker ran (nonzero: stealing redistributes load).
	Workers int    `json:"workers"`
	Steals  uint64 `json:"steals"`

	EventsIn        uint64 `json:"events_in"`
	EventsShed      uint64 `json:"events_shed"`
	EventsProcessed uint64 `json:"events_processed"`
	Matches         uint64 `json:"matches"`
	LivePMs         int64  `json:"live_partial_matches"`
	CreatedPMs      uint64 `json:"created_partial_matches"`
	DroppedPMs      uint64 `json:"dropped_partial_matches"`
	BusyNs          int64  `json:"busy_ns"`

	// Robustness counters. Restarts sums supervisor restarts across
	// shards; Quarantined counts every dead letter ever recorded (the
	// dead-letter ring's total); AdmissionRejected counts offers refused
	// at the door: by the degradation ladder (level 3), for a failed
	// target shard, or after Close.
	DegradationLevel  int    `json:"degradation_level" prom:"cepshed_degradation_level"`
	Restarts          uint64 `json:"restarts"`
	Quarantined       uint64 `json:"quarantined"`
	AdmissionRejected uint64 `json:"admission_rejected"`
	FailedShards      int    `json:"failed_shards"`
	// ExportedShards counts slots frozen by shard migration (state handed
	// to another node); ShardQuarantined sums the per-shard quarantine
	// counters — unlike Quarantined (the dead-letter total) it is the
	// exact term of the per-node conservation identity events_in == shed
	// + processed + quarantined.
	ExportedShards   int    `json:"exported_shards,omitempty"`
	ShardQuarantined uint64 `json:"shard_quarantined"`

	// Durability aggregates (zero without durability).
	// Recovering is true while any shard is still restoring/replaying;
	// OldestSnapshotUnixNs, the basis of the snapshot-age gauge, is the
	// stalest snapshot instant among the shards that have taken one (0
	// while none has). A shard snapshots only every
	// checkpoint.Config.EveryEvents processed events, so an idle shard may
	// never take one and must not hold the gauge at 0.
	Recovering           bool   `json:"recovering"`
	Snapshots            uint64 `json:"snapshots"`
	WALReplayed          uint64 `json:"wal_replayed"`
	ColdStarts           uint64 `json:"cold_starts"`
	WALErrors            uint64 `json:"wal_errors"`
	OldestSnapshotUnixNs int64  `json:"oldest_snapshot_unix_ns"`
	SnapshotBytes        int64  `json:"snapshot_bytes"`
	// SnapPauseMaxNs is the worst per-shard ShardSnapshot.SnapPauseMaxNs.
	SnapPauseMaxNs int64 `json:"snap_pause_max_ns"`

	// Shed decision path aggregates: sums of the per-shard counters,
	// except the *Max gauges (worst shard) and PlanBuildNsLast (most
	// recent nonzero build, any shard).
	AdmissionNs     int64  `json:"admission_ns"`
	AdaptFolds      uint64 `json:"adapt_folds"`
	PlansBuilt      uint64 `json:"shed_plans_built"`
	PlansApplied    uint64 `json:"shed_plans_applied"`
	PlansStale      uint64 `json:"shed_plans_stale"`
	PlanBuildNsLast int64  `json:"shed_plan_build_ns_last"`
	PlanBuildNsMax  int64  `json:"shed_plan_build_ns_max"`
	ShedStallMaxNs  int64  `json:"shed_stall_max_ns"`
	ClassBuckets    int64  `json:"class_buckets"`
	ClassLivePMs    int64  `json:"class_live_pms"`
	ClassDeadPMs    int64  `json:"class_dead_pms"`
	IndexVisited    uint64 `json:"index_visited"`
	IndexPruned     uint64 `json:"index_pruned"`

	// InputShedRatio is shed / offered events; PMShedRatio is dropped /
	// created partial matches (the paper's ρI and ρS realized ratios).
	InputShedRatio float64 `json:"input_shed_ratio"`
	PMShedRatio    float64 `json:"pm_shed_ratio"`

	P50         time.Duration `json:"p50_ns" prom:"cepshed_latency_seconds{quantile=0.5},summary,Wall-clock event latency quantiles per query."`
	P95         time.Duration `json:"p95_ns" prom:"cepshed_latency_seconds{quantile=0.95}"`
	P99         time.Duration `json:"p99_ns" prom:"cepshed_latency_seconds{quantile=0.99}"`
	MeanLatency time.Duration `json:"mean_latency_ns"`
	MaxLatency  time.Duration `json:"max_latency_ns"`
}

// Snapshot captures the current counters. Safe to call at any time from
// any goroutine.
func (r *Runtime) Snapshot() Snapshot {
	var s Snapshot
	s.Workers = int(r.pool.size.Load())
	s.Steals = r.steals.Load()
	h := metrics.NewHistogram() // the shards' latency samples, merged
	for _, sh := range r.shards {
		h.Merge(sh.hist)
		ss := sh.snapshot()
		s.Shards = append(s.Shards, ss)
		s.EventsIn += ss.EventsIn
		s.EventsShed += ss.EventsShed
		s.EventsProcessed += ss.EventsProcessed
		s.Matches += ss.Matches
		s.LivePMs += ss.LivePMs
		s.CreatedPMs += ss.CreatedPMs
		s.DroppedPMs += ss.DroppedPMs
		s.Restarts += ss.Restarts
		s.ShardQuarantined += ss.Quarantined
		s.BusyNs += ss.BusyNs
		if ss.Failed {
			s.FailedShards++
		}
		if ss.Exported {
			s.ExportedShards++
		}
		s.Recovering = s.Recovering || ss.Recovering
		s.Snapshots += ss.Snapshots
		s.WALReplayed += ss.WALReplayed
		s.ColdStarts += ss.ColdStarts
		s.WALErrors += ss.WALErrors
		s.SnapshotBytes += ss.SnapshotBytes
		if ss.SnapshotUnixNs > 0 && (s.OldestSnapshotUnixNs == 0 || ss.SnapshotUnixNs < s.OldestSnapshotUnixNs) {
			s.OldestSnapshotUnixNs = ss.SnapshotUnixNs
		}
		if ss.SnapPauseMaxNs > s.SnapPauseMaxNs {
			s.SnapPauseMaxNs = ss.SnapPauseMaxNs
		}
		s.AdmissionNs += ss.AdmissionNs
		s.AdaptFolds += ss.AdaptFolds
		s.PlansBuilt += ss.PlansBuilt
		s.PlansApplied += ss.PlansApplied
		s.PlansStale += ss.PlansStale
		if ss.PlanBuildNsLast > 0 {
			s.PlanBuildNsLast = ss.PlanBuildNsLast
		}
		if ss.PlanBuildNsMax > s.PlanBuildNsMax {
			s.PlanBuildNsMax = ss.PlanBuildNsMax
		}
		if ss.ShedStallMaxNs > s.ShedStallMaxNs {
			s.ShedStallMaxNs = ss.ShedStallMaxNs
		}
		s.ClassBuckets += ss.ClassBuckets
		s.ClassLivePMs += ss.ClassLivePMs
		s.ClassDeadPMs += ss.ClassDeadPMs
		s.IndexVisited += ss.IndexVisited
		s.IndexPruned += ss.IndexPruned
	}
	s.DegradationLevel = r.DegradationLevel()
	s.Quarantined = r.dlq.Total()
	s.AdmissionRejected = r.admissionRejected.Load()
	if s.EventsIn > 0 {
		s.InputShedRatio = float64(s.EventsShed) / float64(s.EventsIn)
	}
	if s.CreatedPMs > 0 {
		s.PMShedRatio = float64(s.DroppedPMs) / float64(s.CreatedPMs)
	}
	s.P50 = time.Duration(h.Quantile(0.50))
	s.P95 = time.Duration(h.Quantile(0.95))
	s.P99 = time.Duration(h.Quantile(0.99))
	s.MeanLatency = time.Duration(h.Mean())
	s.MaxLatency = time.Duration(h.Max())
	return s
}

// String renders a one-line summary for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("in=%d shed=%d (%.1f%%) matched=%d pms=%d dropped=%d (%.1f%%) lvl=%d restarts=%d quarantined=%d p50=%s p99=%s",
		s.EventsIn, s.EventsShed, 100*s.InputShedRatio, s.Matches,
		s.LivePMs, s.DroppedPMs, 100*s.PMShedRatio,
		s.DegradationLevel, s.Restarts, s.Quarantined, s.P50, s.P99)
}

// CheckCountWindow refuses a count-window query (WITHIN n EVENTS) on
// more than one shard. Its window is a global sequence-number distance,
// which stretches when each shard sees only a subsequence, so a sharded
// run would answer it wrong.
func CheckCountWindow(q *query.Query, shards int) error {
	if q.Window.Count > 0 && shards > 1 {
		return fmt.Errorf("count window (WITHIN %d EVENTS) needs 1 shard, not %d", q.Window.Count, shards)
	}
	return nil
}

// InferPartitionKey picks the partition attribute from the query: the
// attribute most often equated between two different pattern variables
// (a.ID = b.ID and a.ID = c.ID make ID the key for Q1). Matches of such
// a query are fully contained in one partition, so key-hash sharding is
// exact. Returns "" when no cross-variable equality exists — then events
// spread by seq, an approximate partitioning.
func InferPartitionKey(q *query.Query) string {
	votes := map[string]int{}
	for _, p := range q.Where {
		cmp, ok := p.Expr.(*query.Compare)
		if !ok || cmp.Op != query.CmpEq {
			continue
		}
		l, lok := cmp.L.(*query.FieldRef)
		rr, rok := cmp.R.(*query.FieldRef)
		if !lok || !rok || l.Attr != rr.Attr || l.Var == rr.Var {
			continue
		}
		votes[l.Attr]++
	}
	best, bestN := "", 0
	for attr, n := range votes {
		if n > bestN || (n == bestN && attr < best) {
			best, bestN = attr, n
		}
	}
	return best
}

// keyByAttr hashes the named attribute's value (numerics hash by their
// float64 value so Int(5) and Float(5), which compare equal, co-locate;
// strings hash their bytes). A non-zero salt prefixes the hash input so
// distinct salts shard the same key differently. Empty attr, or an
// event missing the attr, falls back to the event's seq, so the shard
// choice is always a pure function of the event: recovery re-routes the
// log with it, and the cluster router picks a slot's node with it.
//
// The hash is FNV-1a, NOT a per-process-seeded hash: key→shard
// placement must be stable across restarts (a restored partial match
// in shard i has to keep receiving its key's events) and identical on
// every cluster node (the ingest tier routes (query, key) to a shard
// slot before it knows which node owns it). Flood resistance comes
// from the per-query salt, which an external sender doesn't know.
func keyByAttr(attr string, salt uint64) func(*event.Event) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	return func(e *event.Event) uint64 {
		if attr != "" {
			if v, ok := e.Get(attr); ok {
				h := uint64(fnvOffset)
				for i := 0; i < 8; i++ {
					h = (h ^ uint64(byte(salt>>(8*i)))) * fnvPrime
				}
				if v.IsNumeric() {
					bits := math.Float64bits(v.AsFloat())
					for i := 0; i < 8; i++ {
						h = (h ^ uint64(byte(bits>>(8*i)))) * fnvPrime
					}
				} else {
					for i := 0; i < len(v.S); i++ {
						h = (h ^ uint64(v.S[i])) * fnvPrime
					}
				}
				return h
			}
		}
		return e.Seq
	}
}
