package runtime

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cepshed/internal/baseline"
	"cepshed/internal/citibike"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
	"cepshed/internal/vclock"
)

// sortedKeys runs the sequential reference engine and returns its match
// keys in sorted-merge order.
func sortedKeys(ms []engine.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

// collectMatches points cfg.OnMatches at a sink that keeps every match;
// the returned func, valid after Close, gives them in sorted-merge
// order: by detection time, then key.
func collectMatches(cfg *Config) func() []engine.Match {
	var mu sync.Mutex
	var all []engine.Match
	cfg.OnMatches = func(_ int, ms []engine.Match) {
		mu.Lock()
		all = append(all, ms...)
		mu.Unlock()
	}
	return func() []engine.Match {
		mu.Lock()
		defer mu.Unlock()
		sort.Slice(all, func(i, j int) bool {
			if all[i].Detected != all[j].Detected {
				return all[i].Detected < all[j].Detected
			}
			return all[i].Key() < all[j].Key()
		})
		return all
	}
}

func feedAll(r *Runtime, s event.Stream) {
	for _, e := range s {
		r.Offer(e)
	}
	r.Close()
}

// equivalence runs stream through both the sequential engine and an
// n-shard runtime and requires byte-identical sorted match sets.
func equivalence(t *testing.T, m *nfa.Machine, s event.Stream, shards int) {
	t.Helper()
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))

	cfg := Config{Shards: shards}
	matches := collectMatches(&cfg)
	feedAll(New(m, cfg), s)
	got := sortedKeys(matches())

	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shards=%d: %d matches, sequential %d; sets differ", shards, len(got), len(want))
	}
}

func TestShard1EquivalenceDS1(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 7, InterArrival: 15 * event.Microsecond})
	equivalence(t, m, s, 1)
}

func TestShard1EquivalenceCitiBike(t *testing.T) {
	m := nfa.MustCompile(query.HotPaths("5 min", 2, 5))
	s := citibike.Generate(citibike.Config{Trips: 1200, Seed: 3})
	equivalence(t, m, s, 1)
}

// Q1 correlates every match on one ID, so hash-partitioning by ID is
// exact for any shard count, not just one.
func TestShardedEquivalenceDS1(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 7, InterArrival: 15 * event.Microsecond})
	for _, shards := range []int{2, 4, 8} {
		equivalence(t, m, s, shards)
	}
}

func TestShardedEquivalenceCitiBike(t *testing.T) {
	m := nfa.MustCompile(query.HotPaths("5 min", 2, 5))
	s := citibike.Generate(citibike.Config{Trips: 1200, Seed: 3})
	equivalence(t, m, s, 4)
}

func TestInferPartitionKey(t *testing.T) {
	cases := []struct {
		q    *query.Query
		want string
	}{
		{query.Q1("8ms"), "ID"},
		{query.Q3("8ms"), "ID"},
		{query.Q4("8ms"), "ID"},
		{query.HotPaths("5 min", 2, 5), "bike"},
		{query.ClusterTasks("1 min"), "task"},
	}
	for _, c := range cases {
		if got := InferPartitionKey(c.q); got != c.want {
			t.Errorf("InferPartitionKey(%s) = %q, want %q", c.q, got, c.want)
		}
	}
}

// A keyless query's shard choice is a pure function of the event on
// every runtime, durable or not: asking twice gives the same slot, and
// events still spread over the shards, by seq.
func TestKeylessShardIndexIsPure(t *testing.T) {
	q := query.MustParse("PATTERN SEQ(A a, B b) WITHIN 10ms")
	if k := InferPartitionKey(q); k != "" {
		t.Fatalf("InferPartitionKey = %q, want a keyless query", k)
	}
	r := New(nfa.MustCompile(q), Config{Shards: 2})
	defer r.Close()
	used := map[int]bool{}
	for seq := uint64(1); seq <= 4; seq++ {
		e := event.New("A", event.Time(seq), nil)
		e.Seq = seq
		slot := r.ShardIndexFor(e)
		if again := r.ShardIndexFor(e); again != slot {
			t.Errorf("seq %d: ShardIndexFor gave slot %d, then %d", seq, slot, again)
		}
		used[slot] = true
	}
	if len(used) != 2 {
		t.Errorf("4 keyless events used slots %v, want both", used)
	}
}

func TestSnapshotCountersConsistent(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 2, InterArrival: 15 * event.Microsecond})
	r := New(m, Config{
		Shards: 4,
		// A bound of 1ns is violated by every wall-clock sample, so the
		// drop controller must engage and shed some events.
		NewStrategy: func(i int) shed.Strategy { return baseline.NewRandomInput(1, int64(i)+1) },
	})
	feedAll(r, s)
	snap := r.Snapshot()

	if snap.EventsIn != uint64(len(s)) {
		t.Errorf("EventsIn = %d, want %d", snap.EventsIn, len(s))
	}
	if snap.EventsShed+snap.EventsProcessed != snap.EventsIn {
		t.Errorf("shed(%d) + processed(%d) != in(%d)",
			snap.EventsShed, snap.EventsProcessed, snap.EventsIn)
	}
	if snap.EventsShed == 0 {
		t.Error("1ns bound shed nothing; controller is not engaging")
	}
	if snap.InputShedRatio <= 0 {
		t.Errorf("InputShedRatio = %v, want > 0", snap.InputShedRatio)
	}
	if snap.LivePMs != 0 {
		t.Errorf("LivePMs after Close = %d, want 0 (flush)", snap.LivePMs)
	}
	if len(snap.Shards) != 4 {
		t.Fatalf("len(Shards) = %d, want 4", len(snap.Shards))
	}
	var perShard uint64
	for _, ss := range snap.Shards {
		perShard += ss.EventsIn
		if ss.Strategy != "RI" {
			t.Errorf("shard %d strategy = %q, want RI", ss.Shard, ss.Strategy)
		}
	}
	if perShard != snap.EventsIn {
		t.Errorf("per-shard sum %d != aggregate %d", perShard, snap.EventsIn)
	}
}

// gateStrategy blocks AdmitEvent until released, letting the test fill a
// shard queue deterministically.
type gateStrategy struct {
	shed.None
	gate  chan struct{}
	once  sync.Once
	first chan struct{} // closed when the worker is inside AdmitEvent
}

func (g *gateStrategy) AdmitEvent(e *event.Event, now event.Time) bool {
	g.once.Do(func() { close(g.first) })
	<-g.gate
	return true
}

func (g *gateStrategy) Control(event.Time, event.Time) vclock.Cost { return 0 }

// Offer blocks while the shard queue is full — the backpressure signal;
// nothing is dropped for want of room. With the worker parked on the
// first event, a producer completes at most QueueLen+1 offers, and
// once the worker is released every event offered is counted in.
func TestOfferBlocksOnFullQueue(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	gs := &gateStrategy{gate: make(chan struct{}), first: make(chan struct{})}
	const queueLen = 8
	r := New(m, Config{
		Shards:      1,
		QueueLen:    queueLen,
		NewStrategy: func(int) shed.Strategy { return gs },
	})

	s := gen.DS1(gen.DS1Config{Events: 100, Seed: 1})
	r.Offer(s[0])
	<-gs.first // the worker is parked; everything after this queues
	var offered atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, e := range s[1:] {
			if !r.Offer(e) {
				t.Errorf("Offer refused event %d with the ladder off", i+1)
			}
			offered.Add(1)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for offered.Load() < queueLen && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for offers past the bound to show
	if n := offered.Load(); n < queueLen || n > queueLen+1 {
		t.Errorf("producer completed %d offers against a parked worker and a %d-slot queue, want %d..%d",
			n, queueLen, queueLen, queueLen+1)
	}
	close(gs.gate)
	<-done
	r.Close()
	if got, want := r.Snapshot().EventsIn, uint64(len(s)); got != want {
		t.Errorf("EventsIn = %d, want the %d offered", got, want)
	}
}

// A snapshot that reads the queue drained must also mean every match of
// it reached the sink: while OnMatches still holds a batch's matches,
// the shard reports one item in QueueDepth, though the batch's events
// count as processed.
func TestDrainedMeansDelivered(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	r := New(nfa.MustCompile(query.Q1("8ms")), Config{
		Shards: 1,
		OnMatches: func(int, []engine.Match) {
			close(entered)
			<-release
		},
	})
	defer r.Close()
	mk := func(typ string, v int64) *event.Event {
		return event.New(typ, 0, map[string]event.Value{"ID": event.Int(1), "V": event.Int(v)})
	}
	r.OfferBatch([]*event.Event{mk("A", 1), mk("B", 2), mk("C", 3)})
	<-entered
	if s := r.Snapshot(); s.EventsProcessed != 3 || s.Shards[0].QueueDepth != 1 {
		t.Errorf("sink still holding the match: processed %d, queue depth %d; want 3 and 1",
			s.EventsProcessed, s.Shards[0].QueueDepth)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for r.Snapshot().Shards[0].QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue depth stayed above 0 after the sink returned")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Each shard hands its matches to OnMatches in detection order, so a
// sorted merge of the per-shard streams is a merge, never a reorder.
func TestMatchesSortedMergeOrder(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 6000, Seed: 5, InterArrival: 15 * event.Microsecond})
	var mu sync.Mutex
	last := map[int]event.Time{}
	n := 0
	r := New(m, Config{Shards: 4, OnMatches: func(shard int, ms []engine.Match) {
		mu.Lock()
		defer mu.Unlock()
		for _, mt := range ms {
			if mt.Detected < last[shard] {
				t.Errorf("shard %d handed out a match detected at %d after one at %d", shard, mt.Detected, last[shard])
			}
			last[shard] = mt.Detected
			n++
		}
	}})
	feedAll(r, s)
	if n == 0 {
		t.Fatal("no matches")
	}
}

func TestOnMatchCallback(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 6000, Seed: 5, InterArrival: 15 * event.Microsecond})
	var mu sync.Mutex
	n := 0
	r := New(m, Config{
		Shards: 4,
		OnMatches: func(shard int, ms []engine.Match) {
			mu.Lock()
			for range ms {
				n++
			}
			mu.Unlock()
		},
	})
	feedAll(r, s)
	snap := r.Snapshot()
	mu.Lock()
	defer mu.Unlock()
	if uint64(n) != snap.Matches {
		t.Errorf("OnMatches delivered %d matches, snapshot says %d matches", n, snap.Matches)
	}
	if n == 0 {
		t.Error("no matches delivered")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	r := New(m, Config{Shards: 2})
	r.Close()
	r.Close()
}

// Concurrent Snapshot while feeding must be race-free (run under -race).
func TestSnapshotDuringFeed(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 9, InterArrival: 15 * event.Microsecond})
	r := New(m, Config{Shards: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Snapshot()
		}
	}()
	feedAll(r, s)
	<-done
}

// Producers racing Close must never panic on a closed channel: in-flight
// Offers either land (and are drained) or are rejected, and the final
// snapshot accounts for exactly the accepted ones. Regression test for
// the cepserved SIGTERM-during-replay shutdown path.
func TestOfferDuringClose(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 20000, Seed: 11, InterArrival: 15 * event.Microsecond})
	r := New(m, Config{Shards: 4})

	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(s); i += 4 {
				if r.Offer(s[i]) {
					accepted.Add(1)
				}
			}
		}(p)
	}
	r.Close() // races the producers by design
	wg.Wait()
	r.Close() // drain is idempotent after stragglers

	if r.Offer(s[0]) {
		t.Fatal("Offer accepted an event after Close")
	}
	if got, want := r.Snapshot().EventsIn, accepted.Load(); got != want {
		t.Fatalf("EventsIn = %d, accepted Offers = %d", got, want)
	}
}
