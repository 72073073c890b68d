package registry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// parityRig is one registry with one Q1 query on two shards, driven
// into the state the entry-point parity test measures in: shard 0
// failed (so the door refuses its key range), shard 1's worker parked
// inside BeforeProcess (so queue depth, the ladder's only live signal
// here, moves with nothing but the test's own offers), 44 of the 64
// queue slots the ladder sees filled — 4 below the admission mark — and
// a recovery floor in place.
type parityRig struct {
	g       *Registry
	in      *Instance
	release func()
}

const (
	parityFloor   = 10_000 // seq floor; the measured stream starts 10 below it
	parityPrefill = 44
)

func newParityRig(t *testing.T) *parityRig {
	t.Helper()
	var (
		poison  atomic.Bool
		park    atomic.Bool
		entered = make(chan struct{})
		release = make(chan struct{})
		once    sync.Once
	)
	g, err := Open(Config{
		Shards:       2,
		QueueLen:     32,
		DefaultTheta: time.Hour, // ladder on, latency signal out of reach: fill alone drives it
		Arbiter:      ArbiterConfig{Disabled: true},
		TuneRuntime: func(_ QuerySpec, rc *runtime.Config) {
			rc.Restart = runtime.RestartPolicy{BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond, MaxRestarts: 1, Window: time.Minute}
			rc.BeforeProcess = func(shard int, _ *event.Event) {
				if shard == 0 && poison.Load() {
					panic("parity rig: poisoned shard")
				}
				if park.Load() {
					once.Do(func() { close(entered) })
					<-release
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig := &parityRig{g: g, in: mustAdd(t, g, QuerySpec{Tenant: "t", Name: "q", Query: q1Text})}
	rig.release = func() { park.Store(false); close(release) }

	seq := uint64(0)
	mk := func(n int) []*event.Event {
		out := make([]*event.Event, n)
		for i := range out {
			out[i] = event.New("A", event.Time(seq), map[string]event.Value{"ID": event.Int(int64(seq % 97)), "V": event.Int(1)})
			out[i].Seq = seq
			seq++
		}
		return out
	}
	// on1 makes n events whose keys shard 1 owns.
	on1 := func(n int) []*event.Event {
		out := make([]*event.Event, 0, n)
		for len(out) < n {
			if e := mk(1)[0]; rig.in.ShardSlot(e) == 1 {
				out = append(out, e)
			}
		}
		return out
	}
	quiet := func() bool {
		s := rig.in.Runtime().Snapshot()
		for _, ss := range s.Shards {
			if ss.QueueDepth > 0 {
				return false
			}
		}
		return s.EventsIn == s.EventsShed+s.EventsProcessed+s.ShardQuarantined
	}
	deadline := time.Now().Add(20 * time.Second)
	wait := func(what string, ok func() bool) {
		t.Helper()
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("parity rig: %s never happened: %+v", what, rig.in.Runtime().Snapshot())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	poison.Store(true)
	wait("shard 0 failing", func() bool {
		g.OfferBatch(mk(32))
		return rig.in.Runtime().Snapshot().FailedShards == 1
	})
	poison.Store(false)
	wait("the queues draining", quiet)

	park.Store(true)
	g.OfferBatch(on1(1))
	select {
	case <-entered:
	case <-time.After(20 * time.Second):
		t.Fatal("parity rig: worker never parked")
	}
	if res := g.OfferBatch(on1(parityPrefill)); res.Deliveries != parityPrefill {
		t.Fatalf("parity rig: prefill delivered %d of %d", res.Deliveries, parityPrefill)
	}
	if seq >= parityFloor-10 {
		t.Fatalf("parity rig: setup used %d seqs, floor too low", seq)
	}
	rig.in.floor.Store(parityFloor)
	return rig
}

// parityStream is the measured stream: 240 events cycling A, B, C over
// many keys, the first 10 below the recovery floor.
func parityStream() []*event.Event {
	s := make([]*event.Event, 240)
	for i := range s {
		s[i] = event.New([]string{"A", "B", "C"}[i%3], event.Time(parityFloor+i),
			map[string]event.Value{"ID": event.Int(int64(i % 89)), "V": event.Int(1)})
		s[i].Seq = uint64(parityFloor - 10 + i)
	}
	return s
}

// The same stream, one event per call, through each of the four ways an
// (event, query) pair can reach a shard queue — starting at ladder level
// normal and filling the queue through admission into reject, with a
// failed shard and a recovery floor — must end in the same
// per-disposition counts, every pair in exactly one of them. No link
// flips a coin, so the counts are exact: 10 pairs below the floor, then
// deliveries of shard 1's keys until the queued events reach the reject
// mark (61 of 64, 17 past the prefill; level 2 tightens the bound, it
// refuses nothing), then rejections; every pair of the failed shard 0's
// keys is refused from the start. The two runtime entry points know nothing of floors,
// so for them the test runs the registry's admit itself, as OfferSlot
// does.
func TestEntryPointParity(t *testing.T) {
	type tally [shed.NumDispositions]int
	door := func(t *tally, ok bool) {
		if ok {
			t[shed.Delivered]++
		} else {
			t[shed.Rejected]++
		}
	}
	viaRuntime := func(offer func(rt *runtime.Runtime, e *event.Event) bool) func(*parityRig, *event.Event, *tally) {
		return func(r *parityRig, e *event.Event, t *tally) {
			if d := r.in.admit(e); d != shed.Delivered {
				t[d]++
				return
			}
			door(t, offer(r.in.Runtime(), e))
		}
	}
	viaRegistry := func(offer func(r *parityRig, e *event.Event) OfferResult) func(*parityRig, *event.Event, *tally) {
		return func(r *parityRig, e *event.Event, t *tally) {
			res := offer(r, e)
			t[shed.Delivered] += res.Deliveries
			t[shed.Rejected] += res.DoorRejected
			t[shed.FloorSkipped] += res.FloorSkipped
		}
	}
	entries := []struct {
		name     string
		offer    func(*parityRig, *event.Event, *tally)
		ledgered bool // the entry point goes through the instance's ledger
	}{
		{"Offer", viaRuntime(func(rt *runtime.Runtime, e *event.Event) bool { return rt.Offer(e) }), false},
		{"OfferBatch", viaRuntime(func(rt *runtime.Runtime, e *event.Event) bool {
			return rt.OfferBatch([]*event.Event{e}) == 1
		}), false},
		{"Registry.OfferBatch", viaRegistry(func(r *parityRig, e *event.Event) OfferResult {
			return r.g.OfferBatch([]*event.Event{e})
		}), true},
		{"Instance.OfferSlot", viaRegistry(func(r *parityRig, e *event.Event) OfferResult {
			return r.in.OfferSlot(r.in.ShardSlot(e), []*event.Event{e})
		}), true},
	}

	want := tally{shed.FloorSkipped: 10, shed.Delivered: 17, shed.Rejected: 213}
	for _, en := range entries {
		rig := newParityRig(t)
		before, rtBefore := rig.in.disp.Counts(), rig.in.Runtime().Snapshot()
		var got tally
		stream := parityStream()
		for _, e := range stream {
			delivered := got[shed.Delivered]
			en.offer(rig, e, &got)
			if rig.in.ShardSlot(e) == 0 && got[shed.Delivered] != delivered {
				t.Errorf("%s delivered seq %d, whose key the failed shard owns", en.name, e.Seq)
			}
		}
		lvl := rig.in.Runtime().DegradationLevel()
		after, rtAfter := rig.in.disp.Counts(), rig.in.Runtime().Snapshot()
		rig.release()
		rig.g.Close()

		sum := 0
		for _, n := range got {
			sum += n
		}
		if sum != len(stream) {
			t.Errorf("%s: dispositions sum to %d, want the %d pairs offered: %v", en.name, sum, len(stream), got)
		}
		if rej := rtAfter.AdmissionRejected - rtBefore.AdmissionRejected; rej != uint64(got[shed.Rejected]) {
			t.Errorf("%s: runtime counted %d door rejections, callers saw %d", en.name, rej, got[shed.Rejected])
		}
		if en.ledgered {
			for d := range got {
				if delta := after[d] - before[d]; delta != uint64(got[d]) {
					t.Errorf("%s: ledger moved %d for disposition %d, results say %d", en.name, delta, d, got[d])
				}
			}
			if d := rig.in.Dispositions(); d[shed.Delivered] != d[shed.Processed]+d[shed.ShedInput]+d[shed.Quarantined] {
				t.Errorf("%s: drained, yet delivered %d != processed %d + ρI-shed %d + quarantined %d",
					en.name, d[shed.Delivered], d[shed.Processed], d[shed.ShedInput], d[shed.Quarantined])
			}
		}
		if lvl != runtime.LevelReject {
			t.Errorf("%s: the stream ended at ladder level %d, want %d", en.name, lvl, runtime.LevelReject)
		}
		if got != want {
			t.Errorf("%s ended in %v, want %v", en.name, got, want)
		}
	}
}
