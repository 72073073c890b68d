package runtime

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
)

// An OfferBatch whose events span the key range of a failed shard must
// keep every event accounted for: the door refuses the failed shard's
// keys, counted in AdmissionRejected, and what it accepts ends processed
// in place, shed, or quarantined — the poison that killed the worker and
// whatever sat in its queue — with events_in == shed + processed +
// quarantined per shard and in aggregate.
func TestOfferBatchAcrossQuarantinedKeyRangeConservation(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	r := New(m, Config{
		Shards:   2,
		QueueLen: 64,
		Restart: RestartPolicy{
			BackoffBase: 100 * time.Microsecond,
			BackoffMax:  time.Millisecond,
			MaxRestarts: 1,
			Window:      time.Minute,
		},
		// Shard 0 dies on every event it processes: after MaxRestarts the
		// breaker marks it failed and the door refuses its whole key
		// range. Shard 1 stays healthy throughout.
		BeforeProcess: fault.PanicIf(func(shard int, _ *event.Event) bool { return shard == 0 }, "poison range"),
	})

	types := []string{"A", "B", "C"}
	var seq uint64
	mkBatch := func(n int) []*event.Event {
		batch := make([]*event.Event, 0, n)
		for i := 0; i < n; i++ {
			e := event.New(types[int(seq)%len(types)], event.Time(seq*1000),
				map[string]event.Value{"ID": event.Int(int64(seq % 97))}) // many keys: both shards see traffic
			e.Seq = seq
			seq++
			batch = append(batch, e)
		}
		return batch
	}

	// Feed mixed-key batches until the poisoned shard's breaker trips.
	offered, accepted := 0, 0
	deadline := time.Now().Add(10 * time.Second)
	for r.Snapshot().FailedShards == 0 {
		if time.Now().After(deadline) {
			t.Fatal("poisoned shard never failed")
		}
		accepted += r.OfferBatch(mkBatch(32))
		offered += 32
	}
	// Batches now span a failed key range: the door must refuse exactly
	// shard 0's keys and pass shard 1's, neither wedging nor vanishing.
	for i := 0; i < 10; i++ {
		b := mkBatch(32)
		on1 := 0
		for _, e := range b {
			if r.ShardIndexFor(e) == 1 {
				on1++
			}
		}
		if n := r.OfferBatch(b); n != on1 {
			t.Errorf("batch %d: %d accepted, want the %d events of the healthy shard's keys", i, n, on1)
		}
		accepted += on1
		offered += len(b)
	}
	r.Close()

	snap := r.Snapshot()
	if snap.FailedShards != 1 {
		t.Fatalf("FailedShards = %d, want exactly the poisoned shard", snap.FailedShards)
	}
	var inTot, shedTot, procTot, quarTot uint64
	for _, ss := range snap.Shards {
		if ss.EventsIn != ss.EventsShed+ss.EventsProcessed+ss.Quarantined {
			t.Errorf("shard %d conservation broken: in=%d shed=%d processed=%d quarantined=%d",
				ss.Shard, ss.EventsIn, ss.EventsShed, ss.EventsProcessed, ss.Quarantined)
		}
		inTot += ss.EventsIn
		shedTot += ss.EventsShed
		procTot += ss.EventsProcessed
		quarTot += ss.Quarantined
	}
	if inTot != shedTot+procTot+quarTot {
		t.Errorf("aggregate conservation broken: in=%d shed=%d processed=%d quarantined=%d",
			inTot, shedTot, procTot, quarTot)
	}
	// Every offer is accounted for once drained: accepted ones arrived at
	// a shard, refused ones count at the door, and nothing is both.
	if inTot != uint64(accepted) {
		t.Errorf("events_in = %d, want the %d accepted offers", inTot, accepted)
	}
	if inTot+snap.AdmissionRejected != uint64(offered) {
		t.Errorf("events_in %d + door refusals %d, want the %d events offered", inTot, snap.AdmissionRejected, offered)
	}
	if quarTot == 0 {
		t.Error("no events quarantined; the poison path was never exercised")
	}
	if snap.Shards[0].EventsProcessed != 0 || snap.Shards[1].EventsProcessed == 0 {
		t.Errorf("processed %d on the failed shard and %d on the healthy one, want none and some",
			snap.Shards[0].EventsProcessed, snap.Shards[1].EventsProcessed)
	}
	// A drain pass leaves one letter however much it quarantines, so the
	// panic letters that tripped the breaker are still in the ring.
	found := false
	for _, dl := range r.DeadLetters() {
		if dl.Shard == 0 && strings.HasPrefix(dl.Reason, "panic: ") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no panic letter from the poisoned shard")
	}
}

// shedAll is a ρI that admits nothing: a shard serving it counts events
// without touching the engine, so it allocates nothing per event.
type shedAll struct{ shed.None }

func (shedAll) AdmitEvent(*event.Event, event.Time) bool { return false }

// A multi-event offer costs what a single-event one does: no heap
// allocation of its own (the per-shard groups live on the caller's
// stack, the item slices come from the pool and go back to it by the
// same pointer). AllocsPerRun counts process-wide, so the shards shed
// every event — the engine's own per-event allocations stay out of the
// count — and each run waits for the workers to hand its slices back.
func TestOfferBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	m := nfa.MustCompile(query.Q1("8ms"))
	r := New(m, Config{Shards: 4, NewStrategy: func(int) shed.Strategy { return shedAll{} }})
	defer r.Close()
	batch := make([]*event.Event, 6)
	for i := range batch {
		batch[i] = event.New("A", event.Time(i), map[string]event.Value{"ID": event.Int(int64(i))})
		batch[i].Seq = uint64(i)
	}
	var offered uint64
	allocs := testing.AllocsPerRun(500, func() {
		offered += uint64(r.OfferBatch(batch))
		for served := uint64(0); served < offered; goruntime.Gosched() {
			served = 0
			for _, sh := range r.shards {
				served += sh.eventsShed.Load()
			}
		}
	})
	if offered != 501*uint64(len(batch)) {
		t.Fatalf("%d events accepted, want every one of %d", offered, 501*len(batch))
	}
	if allocs != 0 {
		t.Errorf("a 6-event OfferBatch allocates %v times, want 0", allocs)
	}
}
