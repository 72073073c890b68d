package runtime

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
)

// fastRestart keeps supervised tests quick: near-instant backoff, wide
// breaker window.
func fastRestart() RestartPolicy {
	return RestartPolicy{
		BackoffBase: 100 * time.Microsecond,
		BackoffMax:  time.Millisecond,
		MaxRestarts: 100,
		Window:      time.Minute,
	}
}

func TestSupervisorRecoversFromPanic(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 3000, Seed: 7, InterArrival: 15 * event.Microsecond})
	const poisonSeq = 1234
	r := New(m, Config{
		Shards:  2,
		Restart: fastRestart(),
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return e.Seq == poisonSeq
		}, "injected poison"),
	})
	feedAll(r, s)
	snap := r.Snapshot()

	if snap.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", snap.Restarts)
	}
	if snap.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", snap.Quarantined)
	}
	if snap.FailedShards != 0 {
		t.Errorf("FailedShards = %d, want 0 (one panic must not trip the breaker)", snap.FailedShards)
	}
	// Every offered event is accounted for: shed, processed, or
	// quarantined.
	if got := snap.EventsShed + snap.EventsProcessed + snap.Quarantined; got != snap.EventsIn {
		t.Errorf("shed+processed+quarantined = %d, want EventsIn = %d", got, snap.EventsIn)
	}
	dls := r.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("DeadLetters = %d entries, want 1", len(dls))
	}
	dl := dls[0]
	if dl.Seq != poisonSeq {
		t.Errorf("dead letter seq = %d, want %d", dl.Seq, poisonSeq)
	}
	if !strings.Contains(dl.Reason, "injected poison") {
		t.Errorf("dead letter reason %q does not name the panic", dl.Reason)
	}
	if dl.Payload == "" {
		t.Error("dead letter carries no payload")
	}
}

// A tripped breaker fails its shard, and from then on the door refuses
// the shard's key range, counted in AdmissionRejected, while the other
// shard's keys keep flowing.
func TestCircuitBreakerRefusesKeyRange(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 4000, Seed: 3, InterArrival: 15 * event.Microsecond})
	pol := fastRestart()
	pol.MaxRestarts = 3
	r := New(m, Config{
		Shards:  2,
		Restart: pol,
		// Shard 0 is terminally sick: every event it executes panics.
		BeforeProcess: fault.PanicIf(func(shard int, _ *event.Event) bool {
			return shard == 0
		}, "sick shard"),
	})
	for _, e := range s {
		r.Offer(e)
	}
	// Wait for the breaker: shard 0 trips after MaxRestarts+1 panics,
	// which may lag the producer loop by a few backoff sleeps.
	deadline := time.Now().Add(5 * time.Second)
	for !r.Snapshot().Shards[0].Failed {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 did not trip the circuit breaker")
		}
		time.Sleep(time.Millisecond)
	}
	rejected := r.Snapshot().AdmissionRejected
	var on0, refused1 int
	for _, e := range s {
		if r.ShardIndexFor(e) == 0 {
			on0++
			if r.Offer(e) {
				t.Fatalf("Offer accepted seq %d, whose key the failed shard owns", e.Seq)
			}
		} else if !r.Offer(e) {
			refused1++
		}
	}
	if refused1 != 0 {
		t.Errorf("%d offers to the healthy shard were refused", refused1)
	}
	r.Close()
	snap := r.Snapshot()
	if got := snap.AdmissionRejected - rejected; got != uint64(on0) {
		t.Errorf("AdmissionRejected grew by %d, want the %d refused offers", got, on0)
	}
	if snap.FailedShards != 1 {
		t.Errorf("FailedShards = %d, want 1", snap.FailedShards)
	}
	// Breaker policy: MaxRestarts restarts, then the next panic fails the
	// shard instead of restarting it again.
	if want := uint64(pol.MaxRestarts + 1); snap.Shards[0].Restarts != want {
		t.Errorf("shard 0 restarts = %d, want %d", snap.Shards[0].Restarts, want)
	}
	shardConservation(t, snap, "after the breaker tripped")
	if snap.Shards[0].EventsProcessed != 0 {
		t.Errorf("failed shard processed %d events", snap.Shards[0].EventsProcessed)
	}
	if snap.Shards[1].Restarts != 0 || snap.Shards[1].Failed {
		t.Error("healthy shard restarted or failed")
	}
}

// The breaker scenario across a restart. A durable two-shard runtime
// runs 100 match groups, then shard 0 is poisoned until its breaker
// trips, 100 more groups follow, and the runtime closes and reopens
// without the poison. The refused groups were never logged and what sat
// in the failed shard's queue was logged skipped, so the reopened shard
// replays only what it processed itself: no match is delivered twice,
// and every match is one the sequential engine finds.
func TestCircuitBreakerRestartExactlyOnce(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	var stream event.Stream
	group := func() []*event.Event {
		g := len(stream) / 3
		id := event.Int(int64(g + 1))
		for i, typ := range []string{"A", "B", "C"} {
			e := event.New(typ, event.Time(g*100+i*10)*event.Microsecond,
				map[string]event.Value{"ID": id, "V": event.Int(int64(i + 1))}) // 1 + 2 = 3
			e.Seq = uint64(len(stream))
			stream = append(stream, e)
		}
		return stream[len(stream)-3:]
	}
	col := newCollector(t)
	var poisonFrom atomic.Uint64
	poisonFrom.Store(math.MaxUint64)
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 30, FlushEvery: 1}
	cfg := Config{
		Shards:    2,
		OnMatches: col.hook(),
		Restart:   RestartPolicy{BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond, MaxRestarts: 1, Window: time.Minute},
		BeforeProcess: fault.PanicIf(func(shard int, e *event.Event) bool {
			return shard == 0 && e.Seq >= poisonFrom.Load()
		}, "poisoned shard"),
	}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for i := 0; i < 100; i++ {
		r1.OfferBatch(group())
	}
	poisonFrom.Store(uint64(len(stream)))
	deadline := time.Now().Add(10 * time.Second)
	for r1.Snapshot().FailedShards != 1 {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never failed")
		}
		r1.OfferBatch(group())
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		r1.OfferBatch(group())
	}
	r1.Close()
	shardConservation(t, r1.Snapshot(), "first run")

	cfg.BeforeProcess = nil
	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	r2.Close()
	shardConservation(t, r2.Snapshot(), "reopened run")

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d matches delivered twice across the restart, e.g. %s", len(d), d[0])
	}
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), stream, false))
	got := col.keys()
	missing, extra := subsetOf(got, want)
	if len(extra) != 0 {
		t.Fatalf("%d delivered matches are not in the sequential set, e.g. %s", len(extra), extra[0])
	}
	// Each group is one match of its own key; the ones lost are exactly
	// the groups shard 0 owns from the poison on.
	lost := 0
	for _, e := range stream[poisonFrom.Load():] {
		if e.Type == "A" && r1.ShardIndexFor(e) == 0 {
			lost++
		}
	}
	if len(want) != len(stream)/3 || len(missing) != lost {
		t.Fatalf("%d of %d matches missing, want the %d groups of the failed shard's keys since the poison",
			len(missing), len(want), lost)
	}
}

// A breaker that trips with a full queue behind it quarantines the
// queue in one pass: every queued event is counted and logged skipped
// (one flush for the lot, TestAppendSkipFlushesOnce), but the ring gets
// one letter for them, so the panic letters that explain the trip
// survive, on disk too. The reopened shard replays none of them.
func TestCircuitBreakerDrainsQueueInOnePass(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	const queueLen = 64
	s := gen.DS1(gen.DS1Config{Events: queueLen + 1, Seed: 3, InterArrival: 15 * event.Microsecond})
	dir := t.TempDir()
	dur := &checkpoint.Config{Dir: dir, EveryEvents: 1 << 30, FlushEvery: 1}
	taken, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	cfg := Config{
		Shards:   1,
		QueueLen: queueLen,
		Restart:  RestartPolicy{BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond, MaxRestarts: 1, Window: time.Minute},
		// Every event panics; the first holds the worker until the
		// queue behind it is full.
		BeforeProcess: func(int, *event.Event) {
			first.Do(func() { close(taken); <-release })
			panic("sick shard")
		},
	}
	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	r1.Offer(s[0])
	<-taken
	for _, e := range s[1:] {
		if !r1.Offer(e) {
			t.Fatalf("offer of seq %d refused before the trip", e.Seq)
		}
	}
	close(release)
	r1.Close()
	snap := r1.Snapshot()
	shardConservation(t, snap, "first run")
	if ss := snap.Shards[0]; !ss.Failed || ss.EventsIn != uint64(len(s)) || ss.Quarantined != uint64(len(s)) {
		t.Fatalf("failed=%v events_in=%d quarantined=%d, want a failed shard with all %d events quarantined",
			ss.Failed, ss.EventsIn, ss.Quarantined, len(s))
	}
	var panics, drained int
	for _, dl := range r1.DeadLetters() {
		switch {
		case strings.HasPrefix(dl.Reason, "panic: sick shard"):
			panics++
		case dl.Reason == fmt.Sprintf("shard failed (and %d more)", len(s)-3):
			drained++
		default:
			t.Errorf("unexpected dead letter %+v", dl)
		}
	}
	if panics != 2 || drained != 1 {
		t.Fatalf("%d panic letters and %d drain letters, want 2 and one for the whole queue", panics, drained)
	}
	saved, err := checkpoint.LoadDeadLetters(dir)
	if err != nil || saved == nil || len(saved.Letters) != 3 {
		t.Fatalf("saved dead letters %+v (%v), want the 3 in the ring", saved, err)
	}

	cfg.BeforeProcess = nil
	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	r2.Close()
	snap = r2.Snapshot()
	shardConservation(t, snap, "reopened run")
	if got := snap.Shards[0].EventsProcessed; got != 0 {
		t.Fatalf("reopened shard processed %d events, want none: each was logged skipped", got)
	}
}

func TestAllShardsFailedRejectsOffers(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 200, Seed: 5, InterArrival: 15 * event.Microsecond})
	pol := fastRestart()
	pol.MaxRestarts = 1
	r := New(m, Config{
		Shards:        1,
		Restart:       pol,
		BeforeProcess: fault.PanicIf(func(int, *event.Event) bool { return true }, "always"),
	})
	// Feed until the breaker trips and offers start bouncing.
	deadline := time.Now().Add(5 * time.Second)
	rejected := false
	for !rejected {
		if time.Now().After(deadline) {
			t.Fatal("offers never rejected after total shard failure")
		}
		for _, e := range s {
			if !r.Offer(e) {
				rejected = true
				break
			}
		}
	}
	snap := r.Snapshot()
	if snap.FailedShards != 1 {
		t.Errorf("FailedShards = %d, want 1", snap.FailedShards)
	}
	if snap.AdmissionRejected == 0 {
		t.Error("AdmissionRejected = 0, want > 0 for offers with no healthy shard")
	}
	r.Close()
}

// The dead-letter ring must retain only its most recent letters, oldest
// first, while the total keeps the full tally; a seed larger than the
// ring keeps the newest letters and the total without re-counting.
func TestDeadLetterRetentionBound(t *testing.T) {
	q := &DeadLetterRing{limit: 8}
	for i := 0; i < 20; i++ {
		q.Add(DeadLetter{Shard: -1, Seq: uint64(i), Reason: "bad line"})
	}
	if got := q.Total(); got != 20 {
		t.Errorf("Total = %d, want 20", got)
	}
	if l := q.Letters(); len(l) != 8 || l[0].Seq != 12 || l[7].Seq != 19 {
		t.Errorf("retained %+v, want seqs 12..19", l)
	}
	small := &DeadLetterRing{limit: 4}
	small.Seed(q.State())
	if l := small.Letters(); small.Total() != 20 || len(l) != 4 || l[0].Seq != 16 || l[3].Seq != 19 {
		t.Errorf("seeded ring: total %d, letters %+v; want 20 and seqs 16..19", small.Total(), l)
	}
	var zero DeadLetterRing
	for i := 0; i < deadLetterCap+10; i++ {
		zero.Add(DeadLetter{Seq: uint64(i)})
	}
	if got := len(zero.Letters()); got != deadLetterCap {
		t.Errorf("zero ring retained %d letters, want %d", got, deadLetterCap)
	}
}

// A panicking strategy factory during rebuild must fail the shard, not
// the process.
func TestRebuildFactoryPanicFailsShard(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 500, Seed: 9, InterArrival: 15 * event.Microsecond})
	var calls atomic.Int32
	r := New(m, Config{
		Shards:  1,
		Restart: fastRestart(),
		NewStrategy: func(shard int) shed.Strategy {
			if calls.Add(1) > 1 { // first call builds, rebuild panics
				panic("factory broken")
			}
			return shed.None{}
		},
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return e.Seq == 10
		}, "poison"),
	})
	feedAll(r, s)
	snap := r.Snapshot()
	if snap.FailedShards != 1 {
		t.Errorf("FailedShards = %d, want 1 after factory panic during rebuild", snap.FailedShards)
	}
	if snap.Quarantined == 0 {
		t.Error("no quarantined events after a single-shard failure")
	}
}
