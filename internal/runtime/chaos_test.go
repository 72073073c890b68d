package runtime

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// Chaos invariant 1: with poison events panicking mid-stream, no match
// is lost except through quarantine — every match the sequential
// reference finds but the supervised runtime misses must be explainable
// by a shard restart (the rebuild discards that shard's partial
// matches), and the runtime must never invent matches.
func TestChaosNoMatchLostExceptByQuarantine(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 7, InterArrival: 15 * event.Microsecond})
	const shards = 4

	poison := map[uint64]bool{311: true, 1207: true, 2404: true, 3333: true, 4747: true}
	cfg := Config{
		Shards:  shards,
		Restart: fastRestart(),
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return poison[e.Seq]
		}, "chaos poison"),
	}
	matches := collectMatches(&cfg)
	r := New(m, cfg)
	feedAll(r, s)
	snap := r.Snapshot()

	if got, want := snap.Quarantined, uint64(len(poison)); got != want {
		t.Errorf("Quarantined = %d, want %d (each poison event exactly once)", got, want)
	}
	if snap.Restarts != snap.Quarantined {
		t.Errorf("Restarts = %d, Quarantined = %d; every panic is one restart", snap.Restarts, snap.Quarantined)
	}
	if snap.FailedShards != 0 {
		t.Errorf("FailedShards = %d, want 0 (poison is sparse, breaker must hold)", snap.FailedShards)
	}
	// The dead-letter queue names exactly the poison events.
	seen := map[uint64]bool{}
	for _, dl := range r.DeadLetters() {
		seen[dl.Seq] = true
		if !poison[dl.Seq] {
			t.Errorf("dead letter for seq %d, which was never poisoned", dl.Seq)
		}
	}
	for seq := range poison {
		if !seen[seq] {
			t.Errorf("poison seq %d missing from dead letters", seq)
		}
	}

	want := engine.Sequential(m, engine.DefaultCosts(), s, false)
	wantKeys := map[string]engine.Match{}
	for _, mt := range want {
		wantKeys[mt.Key()] = mt
	}
	got := map[string]bool{}
	for _, mt := range matches() {
		k := mt.Key()
		if _, ok := wantKeys[k]; !ok {
			t.Errorf("runtime invented match %s not in the sequential reference", k)
		}
		got[k] = true
	}
	// Every missing match must route (by the runtime's own key function)
	// to a shard that restarted.
	missing := 0
	for k, mt := range wantKeys {
		if got[k] {
			continue
		}
		missing++
		sh := int(r.key(mt.Events[0]) % uint64(shards))
		if snap.Shards[sh].Restarts == 0 {
			t.Errorf("match %s lost on shard %d, which never restarted", k, sh)
		}
	}
	if missing == len(wantKeys) {
		t.Error("runtime lost every match; recovery is not preserving unaffected shards")
	}
	t.Logf("sequential=%d runtime=%d missing=%d (all on restarted shards)", len(wantKeys), len(got), missing)
}

// Chaos invariant 2: a corrupted NDJSON stream never kills the decoder.
// Every line either decodes or surfaces as a *LineError with a usable
// line number and payload sample, and the decoder reaches EOF.
func TestChaosCorruptNDJSONStream(t *testing.T) {
	s := gen.DS1(gen.DS1Config{Events: 500, Seed: 21, InterArrival: 15 * event.Microsecond})
	c := fault.NewCorrupter(0.3, 99)
	var buf bytes.Buffer
	for _, e := range s {
		buf.Write(c.Mangle(EncodeEvent(e)))
		buf.WriteByte('\n')
	}

	d := NewLineDecoder(&buf, 4096)
	accepted, rejected := 0, 0
	lastLine := 0
	for {
		_, _, err := d.Next()
		if err == nil {
			accepted++
			continue
		}
		var lerr *LineError
		if errors.As(err, &lerr) {
			rejected++
			if lerr.Line <= lastLine {
				t.Errorf("line numbers not increasing: %d after %d", lerr.Line, lastLine)
			}
			lastLine = lerr.Line
			if lerr.Payload == "" {
				t.Errorf("line %d rejected with empty payload sample", lerr.Line)
			}
			continue
		}
		if err == io.EOF {
			break
		}
		t.Fatalf("decoder died with non-recoverable error: %v", err)
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted=%d rejected=%d; corruption rate 0.3 should produce both", accepted, rejected)
	}
	if got := d.Rejected(); got != uint64(rejected) {
		t.Errorf("decoder.Rejected() = %d, saw %d LineErrors", got, rejected)
	}
	t.Logf("accepted=%d rejected=%d lines=%d", accepted, rejected, d.Line())
}

// Chaos invariant 3: concurrent producers, snapshot pollers, injected
// panics, and a mid-stream Close must not race or wedge, and the
// accounting invariant (in = shed + processed + quarantined) must hold
// at the end. Run under -race via `make chaos`.
func TestChaosConcurrentProducersAndClose(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 31, InterArrival: 15 * event.Microsecond})
	r := New(m, Config{
		Shards:        4,
		QueueLen:      64,
		Bound:         50 * time.Millisecond, // ladder armed but rarely triggered
		Restart:       fastRestart(),
		BeforeProcess: fault.Chain(fault.PanicEvery(500, 4, "periodic fault")),
	})

	const producers = 4
	var prod, work, poll sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func() {
			defer prod.Done()
			for _, e := range s {
				r.Offer(e)
			}
		}()
	}
	prodDone := make(chan struct{})
	go func() { prod.Wait(); close(prodDone) }()
	// Pollers hammer the read-side API the whole time.
	for p := 0; p < 2; p++ {
		poll.Add(1)
		go func() {
			defer poll.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Snapshot()
					_ = r.DeadLetters()
					_ = r.DegradationLevel()
				}
			}
		}()
	}
	work.Add(1)
	go func() { // Close races the producers mid-stream.
		defer work.Done()
	wait:
		for r.Snapshot().EventsIn < 3000 {
			select {
			case <-prodDone:
				// The ladder can hit LevelReject during a restart backoff
				// (full queues) and the producers then spin through their
				// whole remaining streams as door rejections — EventsIn
				// freezes below the trigger with nothing left to offer.
				// That is the ladder doing its job, not a wedge: stop
				// waiting and close what was admitted.
				break wait
			case <-time.After(time.Millisecond):
			}
		}
		r.Close()
	}()
	// Producers finish (post-Close offers return false), then stop pollers.
	done := make(chan struct{})
	go func() { prod.Wait(); work.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("chaos run wedged: producers or Close never finished: %v rejected=%d",
			r.Snapshot(), r.Snapshot().AdmissionRejected)
	}
	close(stop)
	poll.Wait()
	r.Close() // idempotent

	snap := r.Snapshot()
	if got := snap.EventsShed + snap.EventsProcessed + snap.Quarantined; got != snap.EventsIn {
		t.Errorf("shed+processed+quarantined = %d, want EventsIn = %d", got, snap.EventsIn)
	}
	if snap.Quarantined == 0 {
		t.Error("periodic fault never fired; chaos injection inert")
	}
	if snap.Restarts != snap.Quarantined {
		t.Errorf("Restarts = %d, Quarantined = %d", snap.Restarts, snap.Quarantined)
	}
}
