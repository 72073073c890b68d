package runtime

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

func TestCircuitBreakerFailsOverKeyRange(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 4000, Seed: 3, InterArrival: 15 * event.Microsecond})
	pol := fastRestart()
	pol.MaxRestarts = 3
	r := New(m, Config{
		Shards:  2,
		Restart: pol,
		// Shard 0 is terminally sick: every event it executes panics. The
		// predicate keys on the *executing* shard, so after failover the
		// same events run cleanly on shard 1.
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
	// The runtime must keep accepting events for the failed shard's keys.
	if !r.Offer(s[0]) {
		t.Error("Offer rejected an event after failover with a healthy shard remaining")
	}
	r.Close()
	snap := r.Snapshot()
	if snap.FailedShards != 1 {
		t.Errorf("FailedShards = %d, want 1", snap.FailedShards)
	}
	// Breaker policy: MaxRestarts restarts, then the next panic fails the
	// shard instead of restarting it again.
	if want := uint64(pol.MaxRestarts + 1); snap.Shards[0].Restarts != want {
		t.Errorf("shard 0 restarts = %d, want %d", snap.Shards[0].Restarts, want)
	}
	// After failover, the whole stream minus the quarantined poison
	// events must have been processed by the healthy shard.
	if got := snap.EventsShed + snap.EventsProcessed + snap.Quarantined; got != snap.EventsIn {
		t.Errorf("shed+processed+quarantined = %d, want EventsIn = %d", got, snap.EventsIn)
	}
	if snap.Shards[1].EventsProcessed == 0 {
		t.Error("healthy shard processed nothing; failover routing is broken")
	}
	if snap.Shards[1].Restarts != 0 || snap.Shards[1].Failed {
		t.Error("healthy shard restarted or failed")
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
