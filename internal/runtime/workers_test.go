package runtime

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// zipfStream builds a Q1-shaped stream (types A/B/C/D with ID and V
// attributes) whose IDs follow a Zipf distribution, so hash partitioning
// lands most of the load on a few hot shards. That is the adversarial
// input for the worker pool: home workers of cold shards go idle and
// must steal the hot shards to keep up.
func zipfStream(events int, seed int64) event.Stream {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	types := []string{"A", "B", "C", "D"}
	var b event.Builder
	t := event.Time(0)
	for i := 0; i < events; i++ {
		t += 15 * event.Microsecond
		e := event.New(types[rng.Intn(len(types))], t, map[string]event.Value{
			"ID": event.Int(int64(zipf.Uint64()) + 1),
			"V":  event.Int(int64(1 + rng.Intn(10))),
		})
		b.Add(e)
	}
	return b.Finish()
}

// onPool is New on a pool capped at workers instead of GOMAXPROCS, so a
// test fixes the worker/shard ratio on any host. The pool stops when
// the test ends.
func onPool(t *testing.T, workers int, m *nfa.Machine, cfg Config) *Runtime {
	p := newPool(workers)
	t.Cleanup(p.Stop)
	return NewShared(m, cfg, p, nil, "", nil)
}

// With fewer workers than shards (2 workers, 8 shards) and a zipfian key
// distribution, shards are serviced by whichever worker claims them —
// the claim lock migrates shards between workers constantly. Two
// invariants must survive that: the conservation identity
// events_in == shed + processed + quarantined, and per-key processing
// order (each key lives on one shard, and a shard is only ever serviced
// by one claim holder at a time). Run under -race this also checks the
// claim handoff publishes engine state correctly between workers.
func TestWorkStealingZipfianConservationAndOrdering(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := zipfStream(8000, 11)

	var mu sync.Mutex
	lastSeq := map[int64]uint64{}
	violations := 0
	r := onPool(t, 2, m, Config{
		Shards: 8,
		BeforeProcess: func(_ int, e *event.Event) {
			id := e.Int("ID")
			mu.Lock()
			if prev, ok := lastSeq[id]; ok && e.Seq <= prev {
				violations++
			}
			lastSeq[id] = e.Seq
			mu.Unlock()
		},
	})
	snap := r.Snapshot()
	if snap.Workers != 2 {
		t.Fatalf("snapshot reports %d workers, want 2", snap.Workers)
	}

	const chunk = 128
	for i := 0; i < len(s); i += chunk {
		end := i + chunk
		if end > len(s) {
			end = len(s)
		}
		r.OfferBatch(s[i:end])
	}
	r.Close()
	snap = r.Snapshot()

	if violations != 0 {
		t.Fatalf("%d per-key ordering violations under work stealing", violations)
	}
	if got := snap.EventsShed + snap.EventsProcessed + snap.ShardQuarantined; got != snap.EventsIn {
		t.Fatalf("conservation violated: events_in=%d != shed+processed+quarantined=%d", snap.EventsIn, got)
	}
	if snap.EventsIn != uint64(len(s)) {
		t.Fatalf("events_in=%d, offered %d", snap.EventsIn, len(s))
	}
	if snap.EventsProcessed != uint64(len(s)) {
		t.Fatalf("processed=%d, want all %d (no strategy, no bound: nothing may shed)", snap.EventsProcessed, len(s))
	}
}

// TestChaosStealDuringSnapshot drives the worker pool and the async
// snapshot protocol into each other with fault injectors. The stream's
// ten IDs land on shards 0, 1 and 3 (most on 1; 1 and 3 are worker 1's
// homes, 0 is worker 0's). Shard 3's first event blocks on a gate,
// pinning its claim holder until a steal has been counted: held by
// worker 1, worker 0 must steal shard 1; held by worker 0, worker 1
// must steal shard 0. A Delay on shard 3 afterwards keeps the claims
// lopsided so stealing continues — including of shards with a
// background snapshot in flight (capture handoff, settle on a DIFFERENT
// worker than the one that started the snapshot) — and FailStageOnce
// crashes one background snapshot write mid-protocol. The failed write
// must be contained (no shard restart — the write ran off-thread),
// later snapshots must succeed, matches must stay exactly the
// sequential reference set, and steals must actually have happened for
// the test to mean anything.
func TestChaosStealDuringSnapshot(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 2500, Seed: 23, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))

	gate := make(chan struct{})
	dur := &checkpoint.Config{
		Dir:         t.TempDir(),
		EveryEvents: 150,
		FlushEvery:  1,
		OnStage:     fault.FailStageOnce("tmp-written", 2),
	}
	cfg := Config{
		Shards: 4,
		BeforeProcess: func(shard int, _ *event.Event) {
			if shard == 3 {
				<-gate
				time.Sleep(100 * time.Microsecond)
			}
		},
	}
	matches := collectMatches(&cfg)
	p := newPool(2)
	t.Cleanup(p.Stop)
	r := OpenRig(t, m, cfg, p, dur)
	r.WaitRecovered()
	// Shard 3's share of the stream fits its queue, so Offer never blocks
	// on the held shard.
	held := true
	for _, e := range s {
		r.Offer(e)
		if held && r.steals.Load() > 0 {
			close(gate)
			held = false
		}
	}
	if held {
		// Bounded: on a timeout the Steals check below fails the test.
		for deadline := time.Now().Add(10 * time.Second); r.steals.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}
	r.Close()
	snap := r.Snapshot()

	if snap.Steals == 0 {
		t.Fatal("no shard was stolen; the fault layout failed to force work stealing")
	}
	if snap.Restarts != 0 {
		t.Fatalf("restarts=%d; a background snapshot-write crash must not restart the shard", snap.Restarts)
	}
	if snap.Snapshots < 2 {
		t.Fatalf("snapshots=%d; snapshots after the injected write crash must succeed", snap.Snapshots)
	}
	if got := snap.EventsShed + snap.EventsProcessed + snap.ShardQuarantined; got != snap.EventsIn {
		t.Fatalf("conservation violated: events_in=%d != shed+processed+quarantined=%d", snap.EventsIn, got)
	}
	got := sortedKeys(matches())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("match set diverged: got %d matches, reference %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}
}

// TestPoolOneWorkerKeepsVictimBound shares one worker between two
// runtimes: a neighbour whose every event costs 1ms, offered more than
// it can process, and a cheap victim. Only the quantum's wall-time
// bound lets the worker leave the neighbour's deep queue before
// quantumBudget events (over 250ms of its work) are through, so the
// victim's p99 stays under the 250ms TestArbiterIsolation holds a
// victim to.
func TestPoolOneWorkerKeepsVictimBound(t *testing.T) {
	p := newPool(1)
	t.Cleanup(p.Stop)
	bad := NewShared(nfa.MustCompile(query.Q1("8ms")), Config{
		QueueLen:      16,
		BeforeProcess: func(int, *event.Event) { time.Sleep(time.Millisecond) },
	}, p, nil, "", nil)
	good := NewShared(nfa.MustCompile(query.MustParse(`PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 8ms`)), Config{}, p, nil, "", nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	feed := func(r *Runtime, types []string, n int, every time.Duration) {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var b event.Builder
			for k := 0; k < n; k++ {
				b.Add(event.New(types[k%len(types)], event.Time(i)*event.Millisecond,
					map[string]event.Value{"ID": event.Int(i), "V": event.Int(1)}))
			}
			r.OfferBatch(b.Finish())
			time.Sleep(every)
		}
	}
	wg.Add(2)
	go feed(bad, []string{"A", "B", "C"}, 30, 20*time.Millisecond)
	go feed(good, []string{"X", "Y"}, 2, 2*time.Millisecond)
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	good.Close()
	bad.Close()

	if s := bad.Snapshot(); s.EventsProcessed < quantumBudget {
		t.Fatalf("neighbour processed %d events; it never filled one quantum, so the test is vacuous", s.EventsProcessed)
	}
	gs := good.Snapshot()
	if gs.Workers != 1 {
		t.Fatalf("snapshot reports %d workers, want the pool's 1", gs.Workers)
	}
	if gs.EventsProcessed == 0 || gs.EventsProcessed != gs.EventsIn {
		t.Fatalf("victim processed %d of %d events", gs.EventsProcessed, gs.EventsIn)
	}
	if gs.P99 > 250*time.Millisecond {
		t.Errorf("victim p99 = %v, want < 250ms while the neighbour overloads the shared worker", gs.P99)
	}
}
