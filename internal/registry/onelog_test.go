package registry

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// oneLogQueries are the differential's queries: overlapping
// subscriptions over A–D, all keyed on ID so two shards partition them
// exactly. "bd" belongs to a tenant whose θ of 1ns keeps its ladder at
// level 3 while it has recent latency samples: it refuses most batches
// at the door.
var oneLogQueries = []QuerySpec{
	{Tenant: "t", Name: "abc", Query: q1Text},
	{Tenant: "t", Name: "ab", Query: `PATTERN SEQ(A a, B b) WHERE a.ID = b.ID WITHIN 2ms`},
	{Tenant: "t", Name: "bc", Query: `PATTERN SEQ(B b, C c) WHERE b.ID = c.ID WITHIN 2ms`},
	{Tenant: "t", Name: "cd", Query: `PATTERN SEQ(C c, D d) WHERE c.ID = d.ID WITHIN 2ms`},
	{Tenant: "t", Name: "ad", Query: `PATTERN SEQ(A a, D d) WHERE a.ID = d.ID WITHIN 2ms`},
	{Tenant: "hot", Name: "bd", Query: `PATTERN SEQ(B b, D d) WHERE b.ID = d.ID WITHIN 2ms`},
}

// oneLogAdded joins mid-stream.
var oneLogAdded = QuerySpec{Tenant: "t", Name: "ac", Query: `PATTERN SEQ(A a, C c) WHERE a.ID = c.ID WITHIN 2ms`}

// TestMultiQueryCrashRecoveryDifferential drives one durable registry —
// six queries at two shards over one input log — through an Add and a
// Remove mid-stream, ladder level-3 door refusals, a re-sent batch the
// recovery floors refuse, a poison event that only one query
// quarantines, and two kill-and-reopen cycles. Every
// query must end up having delivered exactly engine.Sequential over the
// events its door accepted (the poison excepted), each match once; and
// the log must hold exactly one event record per accepted event, none
// for an event nobody accepted, whatever the number of queries.
func TestMultiQueryCrashRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()
	col := newCollector()
	var poisonSeq uint64 // the first B or C from seq 77 on; set below
	cfg := Config{
		Shards:    2,
		StateDir:  dir,
		OnMatches: col.hook(),
		Arbiter:   ArbiterConfig{Disabled: true},
		TuneRuntime: func(spec QuerySpec, rc *runtime.Config) {
			rc.Restart = runtime.RestartPolicy{BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond}
			if spec.ID() == "t/bc" {
				rc.BeforeProcess = func(_ int, e *event.Event) {
					if e.Seq == poisonSeq {
						panic("poison for t/bc only")
					}
				}
			}
		},
	}

	// 30 batches of 25 events over A–D plus an unsubscribed E, 12 keys.
	rng := rand.New(rand.NewSource(5))
	var stream event.Stream
	for i := 0; i < 750; i++ {
		typ := []string{"A", "B", "C", "D", "E"}[rng.Intn(5)]
		e := event.New(typ, event.Time(i)*100*event.Microsecond,
			map[string]event.Value{"ID": event.Int(int64(rng.Intn(12))), "V": event.Int(int64(1 + rng.Intn(2)))})
		e.Seq = uint64(i)
		stream = append(stream, e)
	}
	for poisonSeq = 77; stream[poisonSeq].Type != "B" && stream[poisonSeq].Type != "C"; poisonSeq++ {
	}

	open := func() *Registry {
		g, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.WaitRecovered()
		return g
	}
	g := open()
	if err := g.SetTenant(Tenant{Name: "hot", Theta: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range oneLogQueries {
		mustAdd(t, g, spec)
	}

	accepted := map[string]event.Stream{} // query id -> events its door accepted
	machines := map[string]*nfa.Machine{}
	var logged []uint64 // seqs some query accepted
	var doorRefused, floorSkipped int
	offer := func(batch event.Stream) {
		before := map[string]uint64{}
		insts := g.instances()
		for _, in := range insts {
			before[in.spec.ID()] = in.disp.Counts()[shed.Delivered]
		}
		// The registry filters each query's slice in place: offer a copy.
		res := g.OfferBatch(append(event.Stream(nil), batch...))
		doorRefused += res.DoorRejected
		floorSkipped += res.FloorSkipped
		took := map[uint64]bool{}
		for _, in := range insts {
			id := in.spec.ID()
			machines[id] = in.m
			var mine event.Stream
			for _, e := range batch {
				if in.subscribes(e.Type) {
					mine = append(mine, e)
				}
			}
			switch got := in.disp.Counts()[shed.Delivered] - before[id]; got {
			case 0:
			case uint64(len(mine)):
				accepted[id] = append(accepted[id], mine...)
				for _, e := range mine {
					took[e.Seq] = true
				}
			default:
				t.Fatalf("%s: door delivered %d of a batch's %d pairs; it decides per batch", id, got, len(mine))
			}
		}
		for _, e := range batch {
			if took[e.Seq] {
				logged = append(logged, e.Seq)
			}
		}
	}
	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			calm := true
			for _, in := range g.instances() {
				s := in.rt.Snapshot()
				for _, ss := range s.Shards {
					calm = calm && ss.QueueDepth == 0
				}
				calm = calm && s.EventsIn == s.EventsShed+s.EventsProcessed+s.ShardQuarantined
			}
			if calm {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("registry never quiesced")
			}
			time.Sleep(time.Millisecond)
		}
	}

	for b := 0; b < 30; b++ {
		switch b {
		case 9, 21:
			// Crash at a quiescent point, then reopen: the manifest brings
			// the queries back and each shard replays the log past its
			// snapshot.
			quiesce()
			g.Kill()
			g = open()
		case 10:
			// A producer re-sends the batch before the crash: each query's
			// recovery floor refuses what it already has — including pairs
			// above their own shard's snapshot floor — and the next crash
			// must not replay those pairs either.
			offer(stream[25*8 : 25*9])
		case 12:
			mustAdd(t, g, oneLogAdded)
		case 15:
			if err := g.Remove("t", "ad", false); err != nil {
				t.Fatal(err)
			}
		case 24:
			time.Sleep(600 * time.Millisecond) // "bd"'s ladder decays: it accepts again
		}
		offer(stream[25*b : 25*(b+1)])
	}
	quiesce()
	g.Close()

	if floorSkipped == 0 {
		t.Fatal("no pair was floor-skipped; the re-sent batch must exercise the recovery floor")
	}
	if doorRefused == 0 || len(accepted["hot/bd"]) == 0 {
		t.Fatalf("hot/bd: %d refused pairs, %d accepted events; the schedule must exercise both",
			doorRefused, len(accepted["hot/bd"]))
	}
	for id, evs := range accepted {
		if id == "t/bc" {
			kept := evs[:0:0]
			for _, e := range evs {
				if e.Seq != poisonSeq {
					kept = append(kept, e)
				}
			}
			if len(kept) == len(evs) {
				t.Fatal("t/bc never accepted the poison event; the schedule must quarantine it")
			}
			evs = kept
		}
		var want []string
		for _, m := range engine.Sequential(machines[id], engine.DefaultCosts(), evs, false) {
			want = append(want, m.Key())
		}
		sort.Strings(want)
		got, dups := col.keys(id)
		if dups != 0 {
			t.Errorf("%s: %d matches delivered more than once", id, dups)
		}
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("%s: delivered %d matches, engine.Sequential over its %d accepted events finds %d",
				id, len(got), len(evs), len(want))
		}
	}

	// Exactly one event record per accepted event.
	var got []uint64
	if _, err := checkpoint.ReadLog(filepath.Join(dir, logDir), logFP, func(r checkpoint.Record) {
		if r.Kind == checkpoint.RecEvent {
			got = append(got, r.Seq)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(logged, func(i, j int) bool { return logged[i] < logged[j] })
	if !reflect.DeepEqual(got, logged) {
		t.Fatalf("log holds %d event records, want one for each of the %d accepted events", len(got), len(logged))
	}
}

// TestIdleQueryDoesNotPinLog runs a query whose types never arrive next
// to a busy one, with a segment closing every 50 events: the idle
// query's shards must answer the log's snapshot requests, so the log
// soon keeps only a few segments instead of the whole stream. Snapshots
// complete asynchronously, so the second half of the stream feeds on
// until compaction has caught up rather than reading the directory at
// one instant.
func TestIdleQueryDoesNotPinLog(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(Config{
		Shards:     2,
		StateDir:   dir,
		Durability: &checkpoint.Config{EveryEvents: 50},
		Arbiter:    ArbiterConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	busy := mustAdd(t, g, QuerySpec{Tenant: "t", Name: "abc", Query: q1Text})
	mustAdd(t, g, QuerySpec{Tenant: "t", Name: "xy", Query: qxyText})
	var s event.Stream
	for i := 0; i < 800; i++ {
		s = abcGroup(s, int64(i%17), event.Time(i)*event.Millisecond)
	}
	s = stamp(s)
	segs := 0
	for lo := 0; lo < len(s); lo += 30 {
		g.OfferBatch(s[lo:min(lo+30, len(s))])
		drainInst(t, busy, uint64(min(lo+30, len(s))))
		names, err := filepath.Glob(filepath.Join(dir, logDir, "log-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if segs = len(names); lo >= len(s)/2 && segs <= 4 {
			return
		}
	}
	t.Fatalf("log keeps %d of %d segments; the idle query pins it", segs, len(s)/50)
}

// TestSlotIdleDoesNotPinLog feeds a durable registry only through
// OfferSlot — the cluster router's and a peer forward's entry point —
// and only into slot 0, as on a node that owns one of a query's two
// slots. The slot that never gets an event must still let the log
// compact.
func TestSlotIdleDoesNotPinLog(t *testing.T) {
	dir := t.TempDir()
	g, err := Open(Config{
		Shards:     2,
		StateDir:   dir,
		Durability: &checkpoint.Config{EveryEvents: 50},
		Arbiter:    ArbiterConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := mustAdd(t, g, QuerySpec{Tenant: "t", Name: "abc", Query: q1Text})
	var s event.Stream
	for i := 0; i < 800; i++ {
		s = abcGroup(s, int64(i%17), event.Time(i)*event.Millisecond)
	}
	s = stamp(s)
	segs := 0
	for lo := 0; lo < len(s); lo += 30 {
		in.OfferSlot(0, append([]*event.Event(nil), s[lo:min(lo+30, len(s))]...))
		drainInst(t, in, uint64(min(lo+30, len(s))))
		names, err := filepath.Glob(filepath.Join(dir, logDir, "log-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if segs = len(names); lo >= len(s)/2 && segs <= 4 {
			return
		}
	}
	t.Fatalf("log keeps %d of %d segments; the idle slot pins it", segs, len(s)/50)
}

// TestBackpressureStaysWithItsQuery parks a registry's "slow" query so
// that its shard queue fills and a producer of its events blocks. A
// producer of events only "fast" subscribes to, and a Remove, must
// still go through: offerMu, which orders door verdicts, queue claims
// and (when durable) the input log, is not held while a producer waits
// for queue space. Durable and non-durable registries run the same
// fan-out, so both are checked.
func TestBackpressureStaysWithItsQuery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"durable", true}, {"non-durable", false}} {
		t.Run(tc.name, func(t *testing.T) { testBackpressureStaysWithItsQuery(t, tc.durable) })
	}
}

func testBackpressureStaysWithItsQuery(t *testing.T, durable bool) {
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	cfg := Config{
		Shards:   1,
		QueueLen: 2,
		Arbiter:  ArbiterConfig{Disabled: true},
		TuneRuntime: func(spec QuerySpec, rc *runtime.Config) {
			if spec.Name == "slow" {
				rc.BeforeProcess = func(int, *event.Event) { <-release }
			}
		},
	}
	if durable {
		cfg.StateDir, cfg.Durability = t.TempDir(), &checkpoint.Config{}
	}
	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		unpark()
		g.Close()
	}()
	mustAdd(t, g, QuerySpec{Tenant: "t", Name: "slow", Query: q1Text})
	fast := mustAdd(t, g, QuerySpec{Tenant: "t", Name: "fast", Query: qxyText})
	mustAdd(t, g, QuerySpec{Tenant: "t", Name: "gone", Query: qxyText})

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		for i := 0; i < 10; i++ {
			e := event.New("A", event.Time(i), map[string]event.Value{"ID": event.Int(1), "V": event.Int(1)})
			e.Seq = uint64(i)
			g.OfferBatch([]*event.Event{e})
		}
	}()
	select {
	case <-blocked:
		t.Fatal("ten offers to a parked query with a two-batch queue did not block")
	case <-time.After(100 * time.Millisecond):
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			typ := []string{"X", "Y"}[i%2]
			e := event.New(typ, event.Time(100+i), map[string]event.Value{"ID": event.Int(int64(i / 2))})
			e.Seq = uint64(100 + i)
			g.OfferBatch([]*event.Event{e})
		}
		if err := g.Remove("t", "gone", false); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a producer of another query's events, or a Remove, waited on the parked query's backpressure")
	}
	drainInst(t, fast, 10)
	unpark()
	<-blocked
}

// TestBackpressureKeepsOtherPairsMoving: an offer that waits for room
// on a parked query's queue has already queued its pairs for every other
// query. a-slow (parked worker, two-batch queue) comes first in the
// route table and b-fast subscribes to the same types, so an offer that
// pushed its pairs in route order only after each full queue had room
// would hold b-fast's share of the blocked batch back with it.
func TestBackpressureKeepsOtherPairsMoving(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	g, err := Open(Config{
		Shards:   1,
		QueueLen: 2,
		Arbiter:  ArbiterConfig{Disabled: true},
		TuneRuntime: func(spec QuerySpec, rc *runtime.Config) {
			if spec.Name == "a-slow" {
				rc.BeforeProcess = func(int, *event.Event) { <-release }
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		unpark()
		g.Close()
	}()
	mustAdd(t, g, QuerySpec{Tenant: "t", Name: "a-slow", Query: q1Text})
	fast := mustAdd(t, g, QuerySpec{Tenant: "t", Name: "b-fast", Query: q1Text})

	const batches, per = 10, 5
	var offered atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			b := make([]*event.Event, per)
			for j := range b {
				seq := uint64(i*per + j)
				b[j] = event.New("A", event.Time(seq), map[string]event.Value{"ID": event.Int(int64(j)), "V": event.Int(1)})
				b[j].Seq = seq
			}
			g.OfferBatch(b)
			offered.Add(1)
		}
	}()
	// Wait until the producer stops making progress: it is blocked on
	// a-slow's queue inside offer number n+1.
	n := int64(-1)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if cur := offered.Load(); cur != n {
			n = cur
		} else {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the producer never settled")
		}
	}
	if n >= batches {
		t.Fatalf("all %d offers to a parked query with a two-batch queue completed", batches)
	}
	want := uint64(n+1) * per // the blocked offer's batch included
	var got uint64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got = fast.Runtime().Snapshot().EventsProcessed; got >= want {
			break
		}
	}
	if offered.Load() != n {
		t.Fatal("the blocked offer completed while b-fast was being checked")
	}
	if got != want {
		t.Fatalf("b-fast processed %d events while offer %d waited on a-slow, want %d: its share of the blocked batch was held back", got, n+1, want)
	}
	unpark()
	<-done
}

// TestConcurrentProducersKeepLogOrder has four producers offer to a
// durable registry at once, with small queues so that sends wait their
// turns, while a fifth query pauses and resumes (barrier control
// messages on the same queues). Each shard must have processed its
// events in exactly the order the log holds them: replay relies on it.
func TestConcurrentProducersKeepLogOrder(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	seen := map[string][]uint64{} // "query/shard" -> seqs in processing order
	g, err := Open(Config{
		Shards:     2,
		QueueLen:   2,
		StateDir:   dir,
		Durability: &checkpoint.Config{},
		Arbiter:    ArbiterConfig{Disabled: true},
		TuneRuntime: func(spec QuerySpec, rc *runtime.Config) {
			rc.BeforeProcess = func(shard int, e *event.Event) {
				mu.Lock()
				defer mu.Unlock()
				k := spec.Name + "/" + string(rune('0'+shard))
				seen[k] = append(seen[k], e.Seq)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*Instance{}
	for _, spec := range oneLogQueries[:4] {
		ins[spec.Name] = mustAdd(t, g, spec)
	}
	mustAdd(t, g, QuerySpec{Tenant: "t", Name: "p", Query: qxyText})

	var seq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 40; b++ {
				var batch []*event.Event
				for i := 0; i < 5; i++ {
					typ := []string{"A", "B", "C", "D", "X", "Y"}[(w+b+i)%6]
					e := event.New(typ, event.Time(b), map[string]event.Value{"ID": event.Int(int64(w*7 + i)), "V": event.Int(1)})
					e.Seq = seq.Add(1)
					batch = append(batch, e)
				}
				g.OfferBatch(batch)
			}
		}(w)
	}
	for i := 0; i < 6; i++ {
		if err := g.Pause("t", "p"); err != nil {
			t.Error(err)
		}
		if err := g.Resume("t", "p"); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	g.Close()

	want := map[string][]uint64{}
	refused := map[uint64]map[uint64]bool{}
	var events []*event.Event
	if _, err := checkpoint.ReadLog(filepath.Join(dir, logDir), logFP, func(r checkpoint.Record) {
		switch r.Kind {
		case checkpoint.RecEvent:
			events = append(events, r.Event)
		case checkpoint.RecRefused:
			if refused[r.Tag.FP] == nil {
				refused[r.Tag.FP] = map[uint64]bool{}
			}
			refused[r.Tag.FP][r.Seq] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	for name, in := range ins {
		for _, e := range events {
			if in.subscribes(e.Type) && !refused[in.fp][e.Seq] {
				k := name + "/" + string(rune('0'+in.rt.ShardIndexFor(e)))
				want[k] = append(want[k], e.Seq)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for k, w := range want {
		if !reflect.DeepEqual(seen[k], w) {
			t.Fatalf("%s processed %d events in an order other than the log's %d", k, len(seen[k]), len(w))
		}
	}
}

// TestPausedQueryReplaysNothingPastItsPause pauses a query, feeds the
// stream on, and crashes: the recovered query must not have absorbed
// the events offered while it was paused.
func TestPausedQueryReplaysNothingPastItsPause(t *testing.T) {
	dir := t.TempDir()
	col := newCollector()
	cfg := Config{StateDir: dir, OnMatches: col.hook(), Arbiter: ArbiterConfig{Disabled: true}}
	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := mustAdd(t, g, QuerySpec{Tenant: "t", Name: "abc", Query: q1Text})
	var s event.Stream
	for i := 0; i < 20; i++ {
		s = abcGroup(s, int64(i), event.Time(i)*event.Millisecond)
	}
	s = stamp(s)
	g.OfferBatch(s[:30])
	drainInst(t, in, 30)
	if err := g.Pause("t", "abc"); err != nil {
		t.Fatal(err)
	}
	g.OfferBatch(s[30:])
	g.Kill()

	g2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	g2.WaitRecovered()
	in2, _ := g2.Get("t", "abc")
	if n := in2.Runtime().Snapshot().EventsIn; n != 30 {
		t.Fatalf("paused query recovered with %d events in, want the 30 offered before the pause", n)
	}
	if total, dups := col.counts("t/abc"); total != 10 || dups != 0 {
		t.Fatalf("matches = %d (dups %d), want the 10 groups offered before the pause", total, dups)
	}
}

// TestBootRecoveryReadsLogOnce boots a durable registry — 2 shards, n
// identical Q1 queries — from a DS1 tail that is still all in the log
// (no snapshot covers any of it), after a Kill. The log grows with n,
// since each query adds its match records, so a boot that reads the log
// once allocates about a constant per log byte, while one in which
// every query-shard copies and decodes the whole log allocates more per
// byte the more queries there are. At 8 queries the boot may allocate
// at most 1.5× per log byte what it does at 2. Seqs start at 2^60, so
// match keys, which spell them out, are long and match records make up
// most of the log. Every match is delivered exactly once across the
// restart.
func TestBootRecoveryReadsLogOnce(t *testing.T) {
	stream := gen.DS1(gen.DS1Config{Events: 6000, Seed: 1})
	for i, e := range stream {
		e.Seq = 1<<60 + uint64(i)
	}
	m := nfa.MustCompile(query.MustParse(q1Text))
	var mine event.Stream
	for _, e := range stream {
		if e.Type == "A" || e.Type == "B" || e.Type == "C" {
			mine = append(mine, e)
		}
	}
	var want []string
	for _, mt := range engine.Sequential(m, engine.DefaultCosts(), mine, false) {
		want = append(want, mt.Key())
	}
	sort.Strings(want)

	allocPerLogByte := func(n int) float64 {
		dir := t.TempDir()
		col := newCollector()
		cfg := Config{Shards: 2, StateDir: dir, OnMatches: col.hook(), Arbiter: ArbiterConfig{Disabled: true}}
		g, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ins []*Instance
		for i := 0; i < n; i++ {
			ins = append(ins, mustAdd(t, g, QuerySpec{Tenant: "t", Name: fmt.Sprintf("q%d", i), Query: q1Text}))
		}
		for lo := 0; lo < len(stream); lo += 100 {
			g.OfferBatch(append(event.Stream(nil), stream[lo:lo+100]...))
		}
		for _, in := range ins {
			drainInst(t, in, uint64(len(mine)))
		}
		g.Kill()

		var logBytes int64
		segs, err := filepath.Glob(filepath.Join(dir, logDir, "log-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil {
				logBytes += fi.Size()
			}
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		g, err = Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.WaitRecovered()
		goruntime.ReadMemStats(&after)
		if info := g.RecoveryInfo(); info.WALReplayed != uint64(n*len(mine)) {
			t.Fatalf("%d queries: boot replayed %d events, want the whole tail, %d", n, info.WALReplayed, n*len(mine))
		}
		g.Close()
		for _, in := range ins {
			got, dups := col.keys(in.spec.ID())
			if dups != 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d matches delivered, %d of them more than once; engine.Sequential finds %d",
					in.spec.ID(), len(got), dups, len(want))
			}
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(logBytes)
		t.Logf("%d queries: %d log bytes, boot allocated %.1f bytes per log byte", n, logBytes, per)
		return per
	}
	small, large := allocPerLogByte(2), allocPerLogByte(8)
	if large > 1.5*small {
		t.Fatalf("boot allocates %.1f bytes per log byte at 8 queries, %.1f at 2: more than 1.5×, so some reader scales with the query count",
			large, small)
	}
}
