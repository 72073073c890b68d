package runtime

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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
)

// collector records every delivered match key across one or more runtime
// incarnations and remembers duplicates — the property the WAL's
// flush-before-deliver match records exist to guarantee. Its hook also
// holds the batch sink to its contract: no empty call, and never two
// calls in flight for one shard (calls counts per shard WITHOUT a lock,
// so under -race an unordered pair of calls is reported even when they
// do not overlap in time).
type collector struct {
	t      *testing.T
	mu     sync.Mutex
	seen   map[string]int
	inCall [16]atomic.Int32
	calls  [16]int
}

func newCollector(t *testing.T) *collector { return &collector{t: t, seen: map[string]int{}} }

func (c *collector) hook() func(int, []engine.Match) {
	return func(shard int, ms []engine.Match) {
		if c.inCall[shard].Add(1) != 1 {
			c.t.Errorf("OnMatches entered concurrently for shard %d", shard)
		}
		defer c.inCall[shard].Add(-1)
		c.calls[shard]++
		if len(ms) == 0 {
			c.t.Errorf("OnMatches called with no matches for shard %d", shard)
		}
		c.mu.Lock()
		for _, m := range ms {
			c.seen[m.Key()]++
		}
		c.mu.Unlock()
	}
}

func (c *collector) dups() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k, n := range c.seen {
		if n > 1 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (c *collector) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.seen))
	for k := range c.seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// drainTo polls until the runtime has appended (and begun processing)
// exactly want events, so a Kill afterwards cannot discard queued input
// that never reached the WAL.
func drainTo(t *testing.T, r interface{ Snapshot() Snapshot }, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := r.Snapshot()
		if s.EventsIn == want {
			// The last event may still be mid-process; one more snapshot
			// round after queues empty is enough for its WAL records (match
			// appends flush synchronously before delivery).
			depth := 0
			for _, ss := range s.Shards {
				depth += ss.QueueDepth
			}
			if depth == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: EventsIn=%d, want %d", s.EventsIn, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func subsetOf(got, want []string) (missing []string, extra []string) {
	w := map[string]bool{}
	for _, k := range want {
		w[k] = true
	}
	g := map[string]bool{}
	for _, k := range got {
		g[k] = true
		if !w[k] {
			extra = append(extra, k)
		}
	}
	for _, k := range want {
		if !g[k] {
			missing = append(missing, k)
		}
	}
	return missing, extra
}

// runCrashDifferential is the acceptance backbone: run a stream with a
// SIGKILL-equivalent crash at a random cut, recover into a second
// incarnation, and require the union of delivered matches to equal the
// uninterrupted run's EXACTLY, with zero duplicate emissions. FlushEvery
// = 1 makes the WAL complete at the crash instant, so recovery owes the
// full set; larger flush intervals only shrink the owed window, never
// change the no-duplicates side.
func runCrashDifferential(t *testing.T, shards int, seed int64, events int) {
	t.Helper()
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: events, Seed: seed, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}

	rng := rand.New(rand.NewSource(seed * 7919))
	cut := 1 + rng.Intn(len(s)-2)
	dir := t.TempDir()
	dur := &checkpoint.Config{Dir: dir, EveryEvents: 200, FlushEvery: 1}
	col := newCollector(t)
	cfg := Config{Shards: shards, OnMatches: col.hook()}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for _, e := range s[:cut] {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(cut))
	r1.Kill()

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	info := r2.RecoveryInfo()
	if info.ColdStarts != 0 {
		t.Fatalf("recovery fell back to cold start %d times", info.ColdStarts)
	}
	if info.MaxSeq != uint64(cut-1) && shards == 1 {
		t.Fatalf("restored MaxSeq = %d, want %d", info.MaxSeq, cut-1)
	}
	for _, e := range s[cut:] {
		r2.Offer(e)
	}
	r2.Close()

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("cut=%d: %d matches delivered more than once, e.g. %s", cut, len(d), d[0])
	}
	got := col.keys()
	missing, extra := subsetOf(got, want)
	if len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("cut=%d: recovered run delivered %d matches, want %d (missing %d, extra %d)",
			cut, len(got), len(want), len(missing), len(extra))
	}
}

func TestCrashRecoveryDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		runCrashDifferential(t, 1, seed, 2500)
	}
}

func TestCrashRecoveryDifferentialSharded(t *testing.T) {
	// Q1 correlates on ID, so hash partitioning is exact and the
	// differential holds per shard too.
	runCrashDifferential(t, 3, 4, 2500)
}

// TestGracefulRestartNoReplay: Close takes a final snapshot, so a clean
// restart restores with ZERO WAL replay and the two halves still add up
// to the uninterrupted match set.
func TestGracefulRestartNoReplay(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 5, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 500, FlushEvery: 8}
	col := newCollector(t)
	cfg := Config{Shards: 1, OnMatches: col.hook()}
	cut := len(s) / 2

	r1 := OpenRig(t, m, cfg, nil, dur)
	for _, e := range s[:cut] {
		r1.Offer(e)
	}
	r1.Close()

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	info := r2.RecoveryInfo()
	if info.WALReplayed != 0 {
		t.Fatalf("clean shutdown left %d WAL events to replay, want 0", info.WALReplayed)
	}
	if info.MaxSeq != uint64(cut-1) {
		t.Fatalf("restored MaxSeq = %d, want %d", info.MaxSeq, cut-1)
	}
	for _, e := range s[cut:] {
		r2.Offer(e)
	}
	r2.Close()

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d duplicate matches across restart", len(d))
	}
	got := col.keys()
	if missing, extra := subsetOf(got, want); len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("restarted run delivered %d matches, want %d", len(got), len(want))
	}
}

// TestPreV3StateColdStartsLoudly restarts over a state directory in
// the format before the one input log: snapshots of format version 2
// and per-shard shard-NNN.wal files. The snapshots must be rejected as
// a counted cold start, and the stale WAL files removed and reported,
// never silently left behind.
func TestPreV3StateColdStartsLoudly(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 600, Seed: 5, InterArrival: 15 * event.Microsecond})
	dir := t.TempDir()
	var mu sync.Mutex
	var logs []string
	dur := &checkpoint.Config{Dir: dir, EveryEvents: 200}
	cfg := Config{Shards: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}}
	r1 := OpenRig(t, m, cfg, nil, dur)
	for _, e := range s {
		r1.Offer(e)
	}
	r1.Close()
	for _, suf := range []string{".snap", ".snap.prev"} {
		path := filepath.Join(dir, "shard-000"+suf)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(data[8:10], 2)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "log", "log-*.wal"))
	for _, seg := range segs {
		os.Remove(seg) // a v2 directory has no input log
	}
	for _, suf := range []string{".wal", ".wal.prev"} {
		if err := os.WriteFile(filepath.Join(dir, "shard-000"+suf), []byte("CEPWAL01\x02\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	info := r2.RecoveryInfo()
	r2.Close()
	if info.ColdStarts != 1 || info.Restored {
		t.Fatalf("cold starts = %d, restored = %v; a v2 snapshot pair must be one counted cold start", info.ColdStarts, info.Restored)
	}
	for _, suf := range []string{".wal", ".wal.prev"} {
		if _, err := os.Stat(filepath.Join(dir, "shard-000"+suf)); !os.IsNotExist(err) {
			t.Fatalf("stale shard-000%s left on disk (stat: %v)", suf, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "removed 2 WAL file(s)") {
			return
		}
	}
	t.Fatalf("no log line reports the removed WAL files; got %q", logs)
}

// TestTornWALTailRecovery chops bytes off the WAL tail after a crash —
// the on-disk state a power loss mid-write leaves. Recovery must come up
// without panicking, deliver only a subset of the reference matches in
// its own incarnation without internal duplicates, and keep processing
// new input. (Cross-incarnation duplicates are out of scope here: the
// truncation may eat match records for deliveries that DID happen, which
// a real crash cannot do — flush-before-deliver puts every delivered
// match's record on disk ahead of any bytes a crash can lose.)
func TestTornWALTailRecovery(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 1500, Seed: 9, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	dir := t.TempDir()
	dur := &checkpoint.Config{Dir: dir, EveryEvents: 400, FlushEvery: 1}
	cut := 1000

	r1 := OpenRig(t, m, Config{Shards: 1}, nil, dur)
	for _, e := range s[:cut] {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(cut))
	r1.Kill()

	// The torn tail is the newest segment; older ones may already be
	// compacted away under a snapshot.
	segs, err := filepath.Glob(filepath.Join(dir, "log", "log-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segment after the crash (glob: %v)", err)
	}
	sort.Strings(segs) // zero-padded numbers: lexical order is numeric
	wal := segs[len(segs)-1]
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 64 {
		// Keep the header plus a ragged prefix; the final record is torn.
		if err := os.Truncate(wal, fi.Size()-fi.Size()/3); err != nil {
			t.Fatal(err)
		}
	}

	col := newCollector(t)
	r2 := OpenRig(t, m, Config{Shards: 1, OnMatches: col.hook()}, nil, dur)
	r2.WaitRecovered()
	if info := r2.RecoveryInfo(); info.ColdStarts != 0 {
		t.Fatalf("torn tail caused %d cold starts, want graceful partial replay", info.ColdStarts)
	}
	for _, e := range s[cut:] {
		r2.Offer(e)
	}
	r2.Close()

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d matches delivered twice within the recovered incarnation", len(d))
	}
	if _, extra := subsetOf(col.keys(), want); len(extra) != 0 {
		t.Fatalf("recovered run invented %d matches outside the reference set", len(extra))
	}
}

// TestHandoffImportMatchesSurviveCrash imports a tail-only handoff into
// a durable runtime and kills it before any later snapshot: the import's
// commit snapshot must already count the matches its tail replay
// completed, so the restarted runtime reports the same total.
func TestHandoffImportMatchesSurviveCrash(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 600, Seed: 5, InterArrival: 15 * event.Microsecond})
	tail := make([]checkpoint.Record, len(s))
	for i, e := range s {
		e.Seq = uint64(i)
		tail[i] = checkpoint.Record{Kind: checkpoint.RecEvent, Seq: e.Seq, Event: e}
	}
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 20, FlushEvery: 1}
	cfg := Config{Shards: 1}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	if _, _, err := r1.ImportShard(&checkpoint.Handoff{Shard: 0, Tail: tail}); err != nil {
		t.Fatal(err)
	}
	before := r1.Snapshot().Matches
	if before == 0 {
		t.Fatal("the imported tail completed no matches; test is vacuous")
	}
	r1.Kill()

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	defer r2.Close()
	if after := r2.Snapshot().Matches; after != before {
		t.Fatalf("matches = %d after the crash, %d before it", after, before)
	}
}

// TestHandoffImportPanicDeliversNothing crashes an import in its commit
// snapshot, after the tail replay completed matches: the failed import
// must hand none of them to the sink, because the caller retries it and
// the retry's replay completes them again.
func TestHandoffImportPanicDeliversNothing(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 600, Seed: 5, InterArrival: 15 * event.Microsecond})
	tail := make([]checkpoint.Record, len(s))
	for i, e := range s {
		e.Seq = uint64(i)
		tail[i] = checkpoint.Record{Kind: checkpoint.RecEvent, Seq: e.Seq, Event: e}
	}
	var armed atomic.Bool
	var delivered atomic.Int64
	r := OpenRig(t, m, Config{
		Shards:    1,
		OnMatches: func(_ int, ms []engine.Match) { delivered.Add(int64(len(ms))) },
		Restart:   RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	}, nil, &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 20, FlushEvery: 1,
		OnStage: func(_ int, stage string) {
			if stage == "encoded" && armed.Load() {
				panic("crash in the import commit")
			}
		}})
	r.WaitRecovered()
	armed.Store(true)
	if _, _, err := r.ImportShard(&checkpoint.Handoff{Shard: 0, Tail: tail}); err == nil {
		t.Fatal("import succeeded through a panicking commit snapshot")
	}
	armed.Store(false)
	r.Close()
	if n := delivered.Load(); n != 0 {
		t.Fatalf("the failed import delivered %d matches", n)
	}
	if n := r.Snapshot().Matches; n != 0 {
		t.Fatalf("the failed import counted %d matches", n)
	}
}

// TestHandoffImportCommitFailureLeavesSlotEmpty fails an import's commit
// snapshot with an error instead of a panic: a directory where the
// snapshot's temp file must go. The import must report the failure,
// deliver and count nothing, and leave the slot empty, so that the
// retry, once the directory is gone, imports the whole tail and every
// match is delivered exactly once.
func TestHandoffImportCommitFailureLeavesSlotEmpty(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 600, Seed: 5, InterArrival: 15 * event.Microsecond})
	tail := make([]checkpoint.Record, len(s))
	for i, e := range s {
		e.Seq = uint64(i)
		tail[i] = checkpoint.Record{Kind: checkpoint.RecEvent, Seq: e.Seq, Event: e}
	}
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}
	dir := t.TempDir()
	col := newCollector(t)
	r := OpenRig(t, m, Config{Shards: 1, OnMatches: col.hook()}, nil,
		&checkpoint.Config{Dir: dir, EveryEvents: 1 << 20, FlushEvery: 1})
	r.WaitRecovered()
	blocker := filepath.Join(dir, "shard-000.snap.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ImportShard(&checkpoint.Handoff{Shard: 0, Tail: tail}); err == nil {
		t.Fatal("import succeeded through a failed commit snapshot")
	}
	if snap := r.Snapshot(); snap.Matches != 0 || snap.EventsIn != 0 || snap.LivePMs != 0 {
		t.Fatalf("the failed import left matches=%d events_in=%d live=%d, want an empty slot",
			snap.Matches, snap.EventsIn, snap.LivePMs)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ImportShard(&checkpoint.Handoff{Shard: 0, Tail: tail}); err != nil {
		t.Fatalf("the retried import: %v", err)
	}
	r.Close()
	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d matches delivered twice across the failed import and its retry, e.g. %s", len(d), d[0])
	}
	if got := col.keys(); len(got) != len(want) {
		t.Fatalf("delivered %d matches, want %d", len(got), len(want))
	}
	if n := r.Snapshot().Matches; n != uint64(len(want)) {
		t.Fatalf("matches = %d, want %d", n, len(want))
	}
}

// TestBarrierSnapshotPanicIsAnError: a quiescent save runs the same
// snapshot protocol as a periodic one, so a panic in its write (here at
// the "encoded" stage of the barrier's snapshot) is a failed save that
// Barrier returns, not a worker panic that restarts the shard. The next
// barrier saves.
func TestBarrierSnapshotPanicIsAnError(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 200, Seed: 3, InterArrival: 15 * event.Microsecond})
	var armed atomic.Bool
	r := OpenRig(t, m, Config{Shards: 1}, nil, &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 20, FlushEvery: 1,
		OnStage: func(_ int, stage string) {
			if stage == "encoded" && armed.Load() {
				panic("crash in the barrier snapshot")
			}
		}})
	defer r.Close()
	r.WaitRecovered()
	for i, e := range s {
		e.Seq = uint64(i)
		r.Offer(e)
	}
	drainTo(t, r, uint64(len(s)))
	armed.Store(true)
	err := r.Barrier(0, false)
	armed.Store(false)
	if err == nil {
		t.Fatal("Barrier succeeded through a panicking snapshot write")
	}
	if n := r.Snapshot().Restarts; n != 0 {
		t.Fatalf("restarts = %d after a failed barrier snapshot, want 0", n)
	}
	before := r.Snapshot().Snapshots
	if err := r.Barrier(0, false); err != nil {
		t.Fatalf("the next barrier: %v", err)
	}
	if n := r.Snapshot().Snapshots; n != before+1 {
		t.Fatalf("snapshots = %d after the next barrier, want %d", n, before+1)
	}
}

// TestBootRecoveryIsCheckpointed: boot recovery commits its replay with
// a snapshot, so a crash right after boot replays none of the tail that
// boot already replayed, and every match is delivered exactly once across
// the three incarnations.
func TestBootRecoveryIsCheckpointed(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 7, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 30, FlushEvery: 1}
	col := newCollector(t)
	cfg := Config{Shards: 2, OnMatches: col.hook()}
	cut := len(s) / 2

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for _, e := range s[:cut] {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(cut))
	r1.Kill() // no snapshot yet: the whole first half is log tail

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	if n := r2.RecoveryInfo().WALReplayed; n != uint64(cut) {
		t.Fatalf("the first boot replayed %d events, want the %d-event tail", n, cut)
	}
	r2.Kill()

	r3 := OpenRig(t, m, cfg, nil, dur)
	r3.WaitRecovered()
	if n := r3.RecoveryInfo().WALReplayed; n != 0 {
		t.Fatalf("the second boot replayed %d events; the first boot's replay was not checkpointed", n)
	}
	for _, e := range s[cut:] {
		r3.Offer(e)
	}
	r3.Close()

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d matches delivered more than once, e.g. %s", len(d), d[0])
	}
	got := col.keys()
	if missing, extra := subsetOf(got, want); len(missing) != 0 || len(extra) != 0 || len(want) == 0 {
		t.Fatalf("three incarnations delivered %d matches, want %d (missing %d, extra %d)",
			len(got), len(want), len(missing), len(extra))
	}
}

// TestCountersMonotoneAcrossRecovery is the accounting regression test:
// the externally visible created/dropped partial-match counters must
// never decrease — not across a panic-rebuild-restore (the supervisor
// path re-bases offsets after replay) and not across a kill-and-reboot
// (the boot path adopts the snapshot counters, then replay adds the
// tail).
func TestCountersMonotoneAcrossRecovery(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 11, InterArrival: 15 * event.Microsecond})
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 300, FlushEvery: 1}
	const poisonSeq = 777
	cfg := Config{
		Shards: 1,
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return e.Seq == poisonSeq
		}, "poison"),
		Restart: RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	}

	r1 := OpenRig(t, m, cfg, nil, dur)
	stop := make(chan struct{})
	var monoErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Sample the exported counters concurrently with the
		// panic-rebuild-replay cycle; any dip is the regression.
		defer wg.Done()
		var lastCreated, lastDropped uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r1.Snapshot()
			if snap.CreatedPMs < lastCreated || snap.DroppedPMs < lastDropped {
				monoErr = &nonMonotone{lastCreated, snap.CreatedPMs, lastDropped, snap.DroppedPMs}
				return
			}
			lastCreated, lastDropped = snap.CreatedPMs, snap.DroppedPMs
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for _, e := range s {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(len(s)))
	close(stop)
	wg.Wait()
	if monoErr != nil {
		t.Fatalf("counters dipped during panic recovery: %v", monoErr)
	}
	pre := r1.Snapshot()
	if pre.Restarts != 1 || pre.Quarantined != 1 {
		t.Fatalf("restarts=%d quarantined=%d, want 1/1 (poison must fire exactly once)", pre.Restarts, pre.Quarantined)
	}
	r1.Kill()

	// Boot restore: counters resume at or above the pre-kill values.
	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	post := r2.Snapshot()
	if post.CreatedPMs < pre.CreatedPMs || post.DroppedPMs < pre.DroppedPMs {
		t.Fatalf("boot restore lost counter ground: created %d->%d dropped %d->%d",
			pre.CreatedPMs, post.CreatedPMs, pre.DroppedPMs, post.DroppedPMs)
	}
	if post.EventsIn < pre.EventsIn-1 {
		t.Fatalf("boot restore lost events_in ground: %d -> %d", pre.EventsIn, post.EventsIn)
	}
	r2.Close()
}

type nonMonotone struct {
	prevCreated, curCreated, prevDropped, curDropped uint64
}

func (e *nonMonotone) Error() string {
	return "created " + itoa(e.prevCreated) + "->" + itoa(e.curCreated) +
		", dropped " + itoa(e.prevDropped) + "->" + itoa(e.curDropped)
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestChaosKillDuringSnapshot fails the second snapshot's background
// write at the exact moment its temp file has been written but not
// renamed, then kills the process and reopens the state directory. The
// write failure is contained (no restart), the half-written generation
// must be skipped for the previous good one — no cold start, the
// snapshot's seq floor honoured — and the matches delivered across both
// incarnations are the reference set exactly once.
func TestChaosKillDuringSnapshot(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 2000, Seed: 13, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	col := newCollector(t)
	failStage := fault.FailStageOnce("tmp-written", 2)
	failed := make(chan struct{})
	cfg := Config{
		Shards:    1,
		OnMatches: col.hook(),
	}
	dur := &checkpoint.Config{
		Dir:         t.TempDir(),
		EveryEvents: 250,
		FlushEvery:  1,
		OnStage: func(shard int, stage string) {
			defer func() {
				if p := recover(); p != nil {
					close(failed)
					panic(p)
				}
			}()
			failStage(shard, stage)
		},
	}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	crashed := func() bool {
		select {
		case <-failed:
			return true
		default:
			return false
		}
	}
	const chunk = 50
	cut := 0
	for cut < len(s) && !crashed() {
		for _, e := range s[cut : cut+chunk] {
			r1.Offer(e)
		}
		cut += chunk
		drainTo(t, r1, uint64(cut))
	}
	if !crashed() {
		t.Fatal("the crash point (second snapshot's tmp-written stage) was never reached")
	}
	pre := r1.Snapshot()
	r1.Kill()
	if pre.Restarts != 0 {
		t.Fatalf("restarts = %d; a background snapshot-write crash must not restart the shard", pre.Restarts)
	}
	if pre.Snapshots < 1 {
		t.Fatalf("snapshots = %d before the crash; there is no previous good generation to fall back to", pre.Snapshots)
	}

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	info := r2.RecoveryInfo()
	if info.ColdStarts != 0 {
		t.Fatalf("cold starts = %d; recovery must fall back to the previous good snapshot", info.ColdStarts)
	}
	if !info.Restored || info.MaxSeq != uint64(cut-1) {
		t.Fatalf("restored=%v max_seq=%d, want the floor at seq %d", info.Restored, info.MaxSeq, cut-1)
	}
	if info.WALReplayed >= uint64(cut) {
		t.Fatalf("replayed %d of %d events from the WAL; the good snapshot generation was not used", info.WALReplayed, cut)
	}
	for _, e := range s[cut:] {
		r2.Offer(e)
	}
	r2.Close()

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d duplicate matches across the snapshot crash", len(d))
	}
	got := col.keys()
	if missing, extra := subsetOf(got, want); len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("recovered run delivered %d matches, want %d (missing %d, extra %d)",
			len(got), len(want), len(missing), len(extra))
	}
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}
}

// TestDeadLetterCheckpointSurvivesCrash: a dead letter is postmortem
// evidence, so it is checkpointed the moment it is recorded rather than
// waiting for the snapshot cadence. A supervisor quarantine (a poison
// event that panicked a worker) must survive a SIGKILL that lands before
// any periodic snapshot would have saved it. (Lines rejected before
// routing go to the registry's ring: TestQuarantineEdgeLetters.)
func TestDeadLetterCheckpointSurvivesCrash(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 200, Seed: 17, InterArrival: 15 * event.Microsecond})
	// EveryEvents is set far past the stream length: the only DLQ saves
	// are the quarantine-time ones under test.
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 30, FlushEvery: 1}
	const poisonSeq = 42
	cfg := Config{
		Shards: 2,
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return e.Seq == poisonSeq
		}, "poison"),
		Restart: RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for _, e := range s {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(len(s)))
	if q := r1.Snapshot().Quarantined; q != 1 {
		t.Fatalf("quarantined = %d before the crash, want 1", q)
	}
	r1.Kill()

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	defer r2.Close()
	if got := r2.Snapshot().Quarantined; got != 1 {
		t.Fatalf("Quarantined after crash restart = %d, want 1", got)
	}
	if letters := r2.DeadLetters(); len(letters) != 1 || letters[0].Shard < 0 || letters[0].Seq != poisonSeq {
		t.Fatalf("dead letters after crash restart = %+v, want the poison seq %d", letters, poisonSeq)
	}
}

// shardConservation asserts the per-shard accounting law
// events_in == shed + processed + quarantined for every shard.
func shardConservation(t *testing.T, snap Snapshot, ctx string) {
	t.Helper()
	for _, ss := range snap.Shards {
		if ss.EventsIn != ss.EventsShed+ss.EventsProcessed+ss.Quarantined {
			t.Fatalf("%s: shard %d conservation broken: in=%d shed=%d processed=%d quarantined=%d",
				ctx, ss.Shard, ss.EventsIn, ss.EventsShed, ss.EventsProcessed, ss.Quarantined)
		}
	}
}

// TestRecoveryBeforeFirstSnapshot crashes before any snapshot exists, so
// recovery has no sequence floor and must replay the WAL from the very
// first record. Sequence numbers start at 0: a zero-valued "no snapshot"
// sentinel would silently drop the stream's first event here, losing its
// matches forever.
func TestRecoveryBeforeFirstSnapshot(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 1500, Seed: 21, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}
	// EveryEvents past the cut: the crash lands before the first snapshot.
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 30, FlushEvery: 1}
	col := newCollector(t)
	cfg := Config{Shards: 1, OnMatches: col.hook()}
	const cut = 60

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for _, e := range s[:cut] {
		r1.Offer(e)
	}
	drainTo(t, r1, cut)
	r1.Kill()

	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	info := r2.RecoveryInfo()
	if !info.Restored {
		t.Fatal("recovery restored a WAL tail but reports Restored=false")
	}
	if info.WALReplayed != cut {
		t.Fatalf("replayed %d WAL events, want %d (seq 0 must replay without a snapshot floor)",
			info.WALReplayed, cut)
	}
	if info.MaxSeq != cut-1 {
		t.Fatalf("restored MaxSeq = %d, want %d", info.MaxSeq, cut-1)
	}
	for _, e := range s[cut:] {
		r2.Offer(e)
	}
	r2.Close()

	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d matches delivered more than once", len(d))
	}
	got := col.keys()
	if missing, extra := subsetOf(got, want); len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("recovered run delivered %d matches, want %d (missing %d, extra %d)",
			len(got), len(want), len(missing), len(extra))
	}
}

// TestQuarantinedSeqZeroSkippedOnReplay: the stream's FIRST event is the
// poison, armed only for the second incarnation's boot replay, which runs
// with no snapshot (so no replay floor). Its quarantine writes a Q record
// for seq 0, and the boot retry must honor it — a zero-valued floor
// sentinel would discard it, and boot replay would re-panic on the poison
// event on every retry.
func TestQuarantinedSeqZeroSkippedOnReplay(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 300, Seed: 23, InterArrival: 15 * event.Microsecond})
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 30, FlushEvery: 1}
	var armed atomic.Bool
	cfg := Config{
		Shards: 1,
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return armed.Load() && e.Seq == 0
		}, "poison"),
		Restart: RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for _, e := range s {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(len(s)))
	if pre := r1.Snapshot(); pre.Snapshots != 0 {
		t.Fatalf("snapshots = %d before the crash; the boot below must replay without a floor", pre.Snapshots)
	}
	r1.Kill()

	armed.Store(true)
	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	snap := r2.Snapshot()
	r2.Close()
	// A second restart means the boot retry hit the poison event again:
	// the seq-0 Q record was not honored.
	if snap.Restarts != 1 {
		t.Fatalf("boot replay restarted %d times, want 1; quarantined seq 0 was replayed", snap.Restarts)
	}
	if snap.EventsIn != uint64(len(s)) {
		t.Fatalf("events_in after recovery = %d, want %d", snap.EventsIn, len(s))
	}
	shardConservation(t, snap, "after seq-0-poison recovery")
}

// TestBootReplayPanicKeepsConservation arms a poison event that fires
// only during the THIRD incarnation's boot replay. The supervisor
// quarantines it and retries recovery; the retry must resume boot counter
// composition (snapshot base + full replay accounting), not degrade to
// the post-panic path that stops counting — that would permanently lose
// the arrival counts of every event past the poison seq.
//
// The WAL tail is built, not hoped for: the first incarnation's final
// snapshot covers the head of the stream, the second logs the tail with
// periodic snapshots off and is killed, so boot replay re-processes
// exactly the tail, and the poison is its first event.
func TestBootReplayPanicKeepsConservation(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 650, Seed: 27, InterArrival: 15 * event.Microsecond})
	const tail = 50
	head := s[:len(s)-tail]
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 200, FlushEvery: 1}
	poisonSeq := s[len(head)].Seq
	var armed atomic.Bool
	cfg := Config{
		Shards: 1,
		BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool {
			return armed.Load() && e.Seq == poisonSeq
		}, "replay-poison"),
		Restart: RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	}

	r1 := OpenRig(t, m, cfg, nil, dur)
	r1.WaitRecovered()
	for _, e := range head {
		r1.Offer(e)
	}
	drainTo(t, r1, uint64(len(head)))
	r1.Close() // the final snapshot covers the whole head

	tailDur := *dur
	tailDur.EveryEvents = 1 << 30
	r1b := OpenRig(t, m, cfg, nil, &tailDur)
	r1b.WaitRecovered()
	for _, e := range s[len(head):] {
		r1b.Offer(e)
	}
	drainTo(t, r1b, uint64(len(s)))
	pre := r1b.Snapshot()
	for deadline := time.Now().Add(30 * time.Second); pre.EventsProcessed < pre.EventsIn; pre = r1b.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("processed=%d/%d before the crash", pre.EventsProcessed, pre.EventsIn)
		}
		time.Sleep(time.Millisecond)
	}
	if pre.Snapshots != 0 {
		t.Fatalf("the tail incarnation took %d snapshots; the WAL tail is no longer the whole tail", pre.Snapshots)
	}
	shardConservation(t, pre, "before crash")
	r1b.Kill()

	armed.Store(true)
	r2 := OpenRig(t, m, cfg, nil, dur)
	r2.WaitRecovered()
	snap := r2.Snapshot()
	r2.Close()

	if snap.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (the armed poison must panic boot replay exactly once)", snap.Restarts)
	}
	if snap.EventsIn != pre.EventsIn {
		t.Fatalf("events_in after boot-replay panic = %d, want %d — the retry lost arrival counts",
			snap.EventsIn, pre.EventsIn)
	}
	var quarantined uint64
	for _, ss := range snap.Shards {
		quarantined += ss.Quarantined
	}
	if quarantined != 1 {
		t.Fatalf("shard quarantined = %d, want exactly 1 (no double count across the retry)", quarantined)
	}
	shardConservation(t, snap, "after boot-replay panic retry")
}

// TestWALFailureDegradesLoudly simulates a WAL write failure (the file
// descriptor dies under the store, as on a yanked disk). The shard must
// count the failure, disable its durability, and KEEP processing — the
// match stream must be unaffected even though exactly-once across a
// restart is gone.
func TestWALFailureDegradesLoudly(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 800, Seed: 31, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 200, FlushEvery: 1}
	col := newCollector(t)
	r := OpenRig(t, m, Config{Shards: 1, OnMatches: col.hook()}, nil, dur)
	r.WaitRecovered()
	// Close the WAL's file descriptor out from under the store: every
	// subsequent append flush fails. WaitRecovered ordered this write
	// after the worker's recovery-time store use; the worker's next use
	// is ordered after the first Offer's channel send.
	r.log.Abort()
	for _, e := range s {
		r.Offer(e)
	}
	drainTo(t, r, uint64(len(s)))
	snap := r.Snapshot()
	r.Close()

	if snap.WALErrors == 0 {
		t.Fatal("WAL failure was not counted")
	}
	if snap.EventsIn != uint64(len(s)) {
		t.Fatalf("events_in = %d, want %d — processing must continue without durability", snap.EventsIn, len(s))
	}
	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d duplicate matches after durability loss", len(d))
	}
	got := col.keys()
	if missing, extra := subsetOf(got, want); len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("degraded run delivered %d matches, want %d", len(got), len(want))
	}
}

// TestCrashRecoveryDifferentialGroupCommit is the group-commit variant
// of the differential: with FlushEvery 64 and the byte/interval limits
// pinned huge, a Kill loses at most one unflushed flush group plus the
// queued events that never reached the WAL. Re-offering everything above
// the restored floor must reproduce the reference match set EXACTLY with
// zero duplicate deliveries — matches are parked until their covering
// flush, so a match in the lost group was never delivered and the
// post-recovery redelivery is the single delivery.
func TestCrashRecoveryDifferentialGroupCommit(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		m := nfa.MustCompile(query.Q1("8ms"))
		s := gen.DS1(gen.DS1Config{Events: 2500, Seed: seed, InterArrival: 15 * event.Microsecond})
		want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
		if len(want) == 0 {
			t.Fatal("reference run found no matches; test is vacuous")
		}
		rng := rand.New(rand.NewSource(seed * 104729))
		cut := 1 + rng.Intn(len(s)-2)
		const flushEvery = 64
		dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 300,
			FlushEvery: flushEvery, FlushBytes: 1 << 30, FlushInterval: time.Hour}
		col := newCollector(t)
		cfg := Config{Shards: 1, OnMatches: col.hook()}

		r1 := OpenRig(t, m, cfg, nil, dur)
		r1.WaitRecovered()
		for _, e := range s[:cut] {
			r1.Offer(e)
		}
		pre := r1.Snapshot()
		r1.Kill() // SIGKILL-equivalent: queued events and the open flush group die

		r2 := OpenRig(t, m, cfg, nil, dur)
		r2.WaitRecovered()
		info := r2.RecoveryInfo()
		next := uint64(0)
		if info.Restored {
			next = info.MaxSeq + 1
		}
		// At-most-one-group loss: the durable prefix may trail what was
		// processed before the Kill by no more than one flush group (the
		// pre-Kill snapshot undercounts what was processed by Kill time,
		// so this bound is conservative).
		if info.Restored && next+flushEvery < pre.EventsProcessed {
			t.Fatalf("cut=%d: durable prefix %d events, %d processed before Kill — lost more than one flush group",
				cut, next, pre.EventsProcessed)
		}
		for _, e := range s[next:] {
			r2.Offer(e)
		}
		r2.Close()

		if d := col.dups(); len(d) != 0 {
			t.Fatalf("cut=%d: %d matches delivered more than once, e.g. %s", cut, len(d), d[0])
		}
		got := col.keys()
		missing, extra := subsetOf(got, want)
		if len(missing) != 0 || len(extra) != 0 {
			t.Fatalf("cut=%d: recovered run delivered %d matches, want %d (missing %d, extra %d)",
				cut, len(got), len(want), len(missing), len(extra))
		}
	}
}

// TestWALFailureMidGroupDeliversBufferedMatches breaks the WAL while
// matches are parked in an open flush group: walFailed must deliver the
// parked matches rather than drop them, count wal_errors exactly once,
// and leave the match stream equal to the reference.
func TestWALFailureMidGroupDeliversBufferedMatches(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 800, Seed: 31, InterArrival: 15 * event.Microsecond})
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), s, false))
	// The first flush attempt happens at 512 buffered records (the count
	// limit; bytes and interval pinned huge, snapshots disabled). Matches
	// among the first ~400 events guarantee the failing group holds
	// parked matches — asserted so the test cannot go vacuous.
	if pre := engine.Sequential(m, engine.DefaultCosts(), s[:400], false); len(pre) == 0 {
		t.Fatal("no matches in the stream prefix; pick another seed")
	}
	dur := &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 20,
		FlushEvery: 512, FlushBytes: 1 << 30, FlushInterval: time.Hour}
	col := newCollector(t)
	gate := make(chan struct{})
	r := OpenRig(t, m, Config{
		Shards: 1, QueueLen: 1024, OnMatches: col.hook(),
		// Hold the worker at the first event until every offer is queued:
		// the queue stays deep, so no idle flush closes the group before
		// the 512-record policy flush hits the broken descriptor.
		BeforeProcess: func(_ int, e *event.Event) {
			if e.Seq == 0 {
				<-gate
			}
		},
	}, nil, dur)
	r.WaitRecovered()
	// Close the WAL's file descriptor out from under the store: every
	// subsequent flush fails. WaitRecovered ordered this write after the
	// worker's recovery-time store use (same trick as
	// TestWALFailureDegradesLoudly).
	r.log.Abort()
	for _, e := range s {
		r.Offer(e)
	}
	close(gate)
	drainTo(t, r, uint64(len(s)))
	snap := r.Snapshot()
	r.Close()

	if snap.WALErrors != 1 {
		t.Fatalf("wal_errors = %d, want exactly 1", snap.WALErrors)
	}
	if d := col.dups(); len(d) != 0 {
		t.Fatalf("%d duplicate matches after mid-group durability loss", len(d))
	}
	got := col.keys()
	if missing, extra := subsetOf(got, want); len(missing) != 0 || len(extra) != 0 {
		t.Fatalf("degraded run delivered %d matches, want %d (missing %d, extra %d)",
			len(got), len(want), len(missing), len(extra))
	}
}

// TestPanicMidBatchDeliversClearedMatches: one queued batch completes a
// match, then panics on a later event. The match was cleared for
// delivery before the panic — emitted without a store, or parked in the
// open flush group that the panic protocol settles — so the sink has it
// before the worker lets go of the shard: ahead of the restart backoff
// and of the batch's salvaged tail, exactly once, also after the
// post-panic replay of a durable shard.
func TestPanicMidBatchDeliversClearedMatches(t *testing.T) {
	for _, durable := range []bool{false, true} {
		m := nfa.MustCompile(query.Q1("8ms"))
		var batch []*event.Event
		for i, typ := range []string{"A", "B", "C", "A", "A", "A"} {
			e := event.New(typ, event.Time(i+1)*event.Millisecond,
				map[string]event.Value{"ID": event.Int(7), "V": event.Int(int64(i + 1))})
			e.Seq = uint64(i)
			batch = append(batch, e)
		}
		const poison = 3
		col := newCollector(t)
		var r *Rig
		var processedAtDelivery atomic.Int64
		hook := col.hook()
		cfg := Config{
			Shards:        1,
			Restart:       RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: time.Millisecond},
			BeforeProcess: fault.PanicIf(func(_ int, e *event.Event) bool { return e.Seq == poison }, "poison"),
			OnMatches: func(shard int, ms []engine.Match) {
				processedAtDelivery.Store(int64(r.Snapshot().EventsProcessed))
				hook(shard, ms)
			},
		}
		var dur *checkpoint.Config
		if durable {
			dur = &checkpoint.Config{Dir: t.TempDir(), EveryEvents: 1 << 20,
				FlushEvery: 512, FlushBytes: 1 << 30, FlushInterval: time.Hour}
		}
		r = OpenRig(t, m, cfg, nil, dur)
		r.WaitRecovered()
		if n := r.OfferBatch(batch); n != len(batch) {
			t.Fatalf("durable=%v: OfferBatch accepted %d of %d", durable, n, len(batch))
		}
		drainTo(t, r, uint64(len(batch)))
		r.Close()

		snap := r.Snapshot()
		if snap.Restarts != 1 || snap.ShardQuarantined != 1 {
			t.Fatalf("durable=%v: restarts = %d, quarantined = %d, want one of each", durable, snap.Restarts, snap.ShardQuarantined)
		}
		if got := col.keys(); len(got) != 1 || got[0] != "0,1,2" || len(col.dups()) != 0 {
			t.Fatalf("durable=%v: delivered %q (duplicates %q), want the match 0,1,2 once", durable, got, col.dups())
		}
		if got := processedAtDelivery.Load(); got != poison {
			t.Errorf("durable=%v: %d events processed when the match was delivered, want %d: the ones before the panic",
				durable, got, poison)
		}
		shardConservation(t, snap, "after the mid-batch panic")
	}
}

// TestShardFinishesOnce has a worker claim a shard that another worker
// finished after the first read it as needing service. The late claim
// must not finish the shard again: a second final snapshot would
// capture the engine the first finish flushed, and a restart would
// restore none of the partial matches the shard closed with.
func TestShardFinishesOnce(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	dur := &checkpoint.Config{Dir: t.TempDir()}
	r1 := OpenRig(t, m, Config{Shards: 1}, nil, dur)
	for i, typ := range []string{"A", "B"} {
		e := event.New(typ, event.Time(i), map[string]event.Value{"ID": event.Int(1), "V": event.Int(1)})
		e.Seq = uint64(i)
		r1.Offer(e)
	}
	r1.Close()
	sh := r1.shards[0]
	sh.svc.Lock()
	sh.quantum(r1.Runtime)
	sh.svc.Unlock()

	r2 := OpenRig(t, m, Config{Shards: 1}, nil, dur)
	defer r2.Close()
	r2.WaitRecovered()
	if live := r2.Snapshot().LivePMs; live != 2 {
		t.Errorf("the restart restored %d partial matches, want the 2 the shard closed with", live)
	}
}
