package checkpoint

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// liveState runs a real engine over a generated stream and snapshots it,
// so round-trip tests cover a populated PM store, not an empty one.
func liveState(t *testing.T, n int) (*engine.Engine, *ShardState) {
	t.Helper()
	en := engine.New(nfa.MustCompile(query.Q1("2ms")), engine.DefaultCosts())
	s := gen.DS1(gen.DS1Config{Events: n, Seed: 3, InterArrival: 30 * event.Microsecond})
	var lastSeq uint64
	var lastTime int64
	for _, e := range s {
		en.Process(e)
		lastSeq, lastTime = e.Seq, int64(e.Time)
	}
	return en, &ShardState{
		Shard:    2,
		LastSeq:  lastSeq,
		HasSeq:   true,
		LastTime: lastTime,
		TakenNs:  123456789,
		Counters: Counters{
			EventsIn: uint64(n), Processed: uint64(n), Matched: 7,
			Restarts: 1, Quarantined: 2, BaseCreated: 11, BaseDropped: 5,
		},
		StrategyName: "Hybrid",
		Strategy:     []byte{1, 2, 3, 4},
		Engine:       en.Snapshot(),
	}
}

const testFP = 0xfeedbeefcafe

func TestShardStateRoundTrip(t *testing.T) {
	en, st := liveState(t, 400)
	if en.LiveCount() == 0 {
		t.Fatal("want live PMs in the fixture")
	}
	img := EncodeShardState(st, testFP)
	got, err := DecodeShardState(img, testFP)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Shard != st.Shard || got.LastSeq != st.LastSeq || got.HasSeq != st.HasSeq ||
		got.LastTime != st.LastTime ||
		got.TakenNs != st.TakenNs || got.Counters != st.Counters ||
		got.StrategyName != st.StrategyName || !bytes.Equal(got.Strategy, st.Strategy) {
		t.Fatalf("header fields diverged:\ngot  %+v\nwant %+v", got, st)
	}
	if got.Engine.Stats != st.Engine.Stats || got.Engine.NextID != st.Engine.NextID {
		t.Fatalf("engine stats diverged: got %+v want %+v", got.Engine.Stats, st.Engine.Stats)
	}
	if len(got.Engine.PMs) != len(st.Engine.PMs) || len(got.Engine.Events) != len(st.Engine.Events) {
		t.Fatalf("engine state sizes diverged: %d/%d PMs, %d/%d events",
			len(got.Engine.PMs), len(st.Engine.PMs), len(got.Engine.Events), len(st.Engine.Events))
	}
	// The decoded state must restore into a working engine.
	restored := engine.New(nfa.MustCompile(query.Q1("2ms")), engine.DefaultCosts())
	if err := restored.Restore(got.Engine); err != nil {
		t.Fatalf("Restore of decoded state: %v", err)
	}
	if restored.LiveCount() != en.LiveCount() {
		t.Fatalf("restored live %d, want %d", restored.LiveCount(), en.LiveCount())
	}
}

func TestDecodeRejections(t *testing.T) {
	_, st := liveState(t, 100)
	img := EncodeShardState(st, testFP)

	t.Run("wrong-fingerprint", func(t *testing.T) {
		if _, err := DecodeShardState(img, testFP+1); err == nil {
			t.Fatal("accepted wrong fingerprint")
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] ^= 0xff
		if _, err := DecodeShardState(bad, testFP); err == nil {
			t.Fatal("accepted wrong magic")
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[8] ^= 0xff
		if _, err := DecodeShardState(bad, testFP); err == nil {
			t.Fatal("accepted wrong version")
		}
	})
	t.Run("body-bitflip", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)-3] ^= 0x10
		if _, err := DecodeShardState(bad, testFP); err == nil {
			t.Fatal("accepted corrupt body (CRC should catch)")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(img); cut += 7 {
			if _, err := DecodeShardState(img[:cut], testFP); err == nil {
				t.Fatalf("accepted truncation at %d", cut)
			}
		}
	})
}

func walEvents(recs []Record) []*event.Event {
	var out []*event.Event
	for _, r := range recs {
		if r.Kind == RecEvent {
			out = append(out, r.Event)
		}
	}
	return out
}

// decodeWAL reads a segment image through the log's frame reader.
func decodeWAL(data []byte, fp uint64) (recs []Record, torn bool, err error) {
	_, torn, err = readFrames(bytes.NewReader(data), int64(len(data)), fp, 0, func(r Record) { recs = append(recs, r) })
	return recs, torn, err
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := NewShardStore(Config{Dir: dir, FlushEvery: 1}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	evs := gen.DS1(gen.DS1Config{Events: 50, Seed: 1, InterArrival: event.Millisecond})
	for _, e := range evs {
		if err := st.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendMatchKey(evs[9].Seq, "1,5,9"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSkip(evs[20].Seq); err != nil {
		t.Fatal(err)
	}
	res, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatal("clean WAL reported torn")
	}
	got := walEvents(res.Records)
	if len(got) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].Seq != evs[i].Seq || got[i].Type != evs[i].Type || got[i].Time != evs[i].Time {
			t.Fatalf("event %d diverged: got %v want %v", i, got[i], evs[i])
		}
		for k, v := range evs[i].Attrs {
			if got[i].Attrs[k] != v {
				t.Fatalf("event %d attr %s diverged", i, k)
			}
		}
	}
	var matches, skips int
	for _, r := range res.Marks {
		switch r.Kind {
		case RecMatch:
			matches++
			if r.Key != "1,5,9" || r.Seq != evs[9].Seq {
				t.Fatalf("match record %+v", r)
			}
		case RecSkip:
			skips++
			if r.Seq != evs[20].Seq {
				t.Fatalf("skip record %+v", r)
			}
		}
	}
	if matches != 1 || skips != 1 {
		t.Fatalf("matches=%d skips=%d, want 1/1", matches, skips)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the file at every byte boundary: each prefix must decode to
	// a (possibly torn) prefix of the records without error or panic.
	data, err := os.ReadFile(filepath.Join(dir, "shard-000-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	full, torn, err := decodeWAL(data, testFP)
	if err != nil || torn {
		t.Fatalf("full decode: torn=%v err=%v", torn, err)
	}
	for cut := headerLen; cut < len(data); cut += 11 {
		recs, _, err := decodeWAL(data[:cut], testFP)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) > len(full) {
			t.Fatalf("cut %d: more records than the full file", cut)
		}
		for i := range recs {
			if recs[i].Kind != full[i].Kind || recs[i].Seq != full[i].Seq {
				t.Fatalf("cut %d: record %d diverged", cut, i)
			}
		}
	}
	// A bit flip mid-record ends the scan at that record, keeping the
	// records before it.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	recs, torn, err := decodeWAL(bad, testFP)
	if err != nil {
		t.Fatalf("bitflip decode: %v", err)
	}
	if !torn {
		t.Fatal("bitflip not reported as torn")
	}
	if len(recs) >= len(full) {
		t.Fatal("bitflip decode returned all records")
	}
}

// TestOpenWALTruncatesTornTail covers the reopen-after-crash path: a WAL
// with a partial last frame must be truncated to its last valid frame on
// open, so records appended by the recovered process land where the NEXT
// recovery can read them (the reader stops at the first bad frame —
// appending after a torn point would make every later record, including
// flushed match records, unreachable).
func TestOpenWALTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := NewShardStore(Config{Dir: dir, FlushEvery: 1}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	evs := gen.DS1(gen.DS1Config{Events: 20, Seed: 4, InterArrival: event.Millisecond})
	for _, e := range evs {
		if err := store.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.AppendMatchKey(evs[19].Seq, "m-old"); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop 3 bytes off the final frame (the m-old match).
	path := filepath.Join(dir, "shard-000-00000001.wal")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Reopen (repair runs inside), append more records, close cleanly.
	store2, err := NewShardStore(Config{Dir: dir, FlushEvery: 1}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	evs2 := gen.DS1(gen.DS1Config{Events: 10, Seed: 5, InterArrival: event.Millisecond})
	for _, e := range evs2 {
		e.Seq += 100 // distinct seq range for readability
		if err := store2.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store2.AppendMatchKey(evs2[9].Seq, "m-new"); err != nil {
		t.Fatal(err)
	}
	res, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatal("repaired-then-appended WAL reported torn")
	}
	if got := len(walEvents(res.Records)); got != 30 {
		t.Fatalf("replayed %d events, want 30 (20 old + 10 new)", got)
	}
	var sawNew, sawOld bool
	for _, r := range res.Marks {
		if r.Kind == RecMatch {
			switch r.Key {
			case "m-new":
				sawNew = true
			case "m-old":
				sawOld = true
			}
		}
	}
	if !sawNew {
		t.Fatal("match appended after repair is unreachable — tail was not truncated")
	}
	if sawOld {
		t.Fatal("torn match record survived repair")
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// A WAL whose header belongs to another configuration rotates aside
	// instead of being appended to.
	store3, err := NewShardStore(Config{Dir: dir, FlushEvery: 1}, 0, testFP+1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen.DS1(gen.DS1Config{Events: 1, Seed: 6, InterArrival: event.Millisecond})
	if err := store3.AppendEvent(fresh[0]); err != nil {
		t.Fatal(err)
	}
	res3, err := store3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(walEvents(res3.Records)); got != 1 {
		t.Fatalf("fresh store replayed %d events, want 1", got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("alien WAL not rotated aside: %v", err)
	}
	if err := store3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBootReadsNoSegmentFile: a boot read filters what OpenLog
// decoded, so with nothing appended since the open it touches no segment
// file — here the segment is pulled from under the log and a directory
// put in its place, which any read would fail on.
func TestLoadBootReadsNoSegmentFile(t *testing.T) {
	dir := t.TempDir()
	evs := gen.DS1(gen.DS1Config{Events: 40, Seed: 3, InterArrival: event.Millisecond})
	l, err := OpenLog(Config{}, dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	tag := Tag{FP: 7, Shard: 0}
	if err := l.AppendBatch(&Batch{Events: evs}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.appendMatch(tag, evs[9].Seq, "m"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = OpenLog(Config{}, dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st, err := l.Store(Config{Dir: dir}, 0, testFP, tag, func(*event.Event) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "log-00000001.wal")
	if err := os.Rename(seg, seg+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(seg, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func() (*LoadResult, error){st.LoadBoot, st.Load} {
		res, err := load()
		if err != nil {
			t.Fatalf("a read that needs no file failed: %v", err)
		}
		if len(res.Records) != len(evs) || len(res.Marks) != 1 || res.Torn {
			t.Fatalf("read %d events and %d marks (torn %v), want %d and 1 from the open's pass",
				len(res.Records), len(res.Marks), res.Torn, len(evs))
		}
	}
}

// TestOpenLogFailsOnUnreadableSegment: only a foreign header rotates a
// segment aside. A segment the log cannot read — here a directory in its
// place, which the read fails with EISDIR — fails the open instead, or
// boot recovery would replay around its records with no sign of them.
func TestOpenLogFailsOnUnreadableSegment(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "log-00000001.wal")
	if err := os.Mkdir(seg, 0o755); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenLog(Config{}, dir, testFP); err == nil {
		l.Close()
		t.Fatal("OpenLog succeeded past a segment it could not read")
	}
	if _, err := os.Stat(seg + ".corrupt"); !os.IsNotExist(err) {
		t.Fatalf("an unreadable segment was rotated aside as corrupt (stat: %v)", err)
	}
	if fi, err := os.Stat(seg); err != nil || !fi.IsDir() {
		t.Fatalf("the unreadable segment was replaced: %v", err)
	}
}

func TestSaveRotatesAndLoadPrefersNewest(t *testing.T) {
	dir := t.TempDir()
	store, err := NewShardStore(Config{Dir: dir, FlushEvery: 1}, 1, testFP)
	if err != nil {
		t.Fatal(err)
	}
	_, st1 := liveState(t, 100)
	st1.LastSeq = 100
	if _, err := store.Save(st1); err != nil {
		t.Fatal(err)
	}
	evs := gen.DS1(gen.DS1Config{Events: 5, Seed: 9, InterArrival: event.Millisecond})
	for _, e := range evs {
		if err := store.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	_, st2 := liveState(t, 200)
	st2.LastSeq = 200
	if _, err := store.Save(st2); err != nil {
		t.Fatal(err)
	}
	res, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil || res.State.LastSeq != 200 {
		t.Fatalf("loaded snapshot %+v, want LastSeq 200", res.State)
	}
	if res.UsedPrev {
		t.Fatal("UsedPrev set with an intact current snapshot")
	}
	// wal.prev (the 5 events) + fresh wal (empty) are both returned.
	if got := walEvents(res.Records); len(got) != len(evs) {
		t.Fatalf("records %d, want %d", len(got), len(evs))
	}
	store.Close()

	// Corrupt the current snapshot: Load falls back to the previous
	// generation and counts the corruption.
	snap := filepath.Join(dir, "shard-001.snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store2, err := NewShardStore(Config{Dir: dir}, 1, testFP)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res2.State == nil || res2.State.LastSeq != 100 {
		t.Fatalf("fallback snapshot %+v, want LastSeq 100", res2.State)
	}
	if !res2.UsedPrev || res2.CorruptSnaps != 1 {
		t.Fatalf("UsedPrev=%v CorruptSnaps=%d, want true/1", res2.UsedPrev, res2.CorruptSnaps)
	}
	store2.Close()

	// Both generations corrupt: State nil, CorruptSnaps 2, no error — the
	// caller cold-starts.
	prev := filepath.Join(dir, "shard-001.snap.prev")
	if err := os.WriteFile(prev, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	store3, err := NewShardStore(Config{Dir: dir}, 1, testFP)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := store3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res3.State != nil || res3.CorruptSnaps != 2 {
		t.Fatalf("State=%v CorruptSnaps=%d, want nil/2", res3.State, res3.CorruptSnaps)
	}
	store3.Close()
}

// TestHalfWrittenTmpIgnored proves the atomic-publish property: a crash
// that leaves a garbage .snap.tmp does not affect what Load restores.
func TestHalfWrittenTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	store, err := NewShardStore(Config{Dir: dir}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	_, st := liveState(t, 100)
	st.LastSeq = 42
	if _, err := store.Save(st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-000.snap.tmp"), []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil || res.State.LastSeq != 42 || res.CorruptSnaps != 0 {
		t.Fatalf("State=%+v CorruptSnaps=%d", res.State, res.CorruptSnaps)
	}
	store.Close()
}

func TestAbortDropsBufferedTail(t *testing.T) {
	dir := t.TempDir()
	// Every policy limit pinned huge: nothing reaches the OS until an
	// explicit flush.
	store, err := NewShardStore(Config{
		Dir: dir, FlushEvery: 1 << 20, FlushBytes: 1 << 30, FlushInterval: time.Hour,
	}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	evs := gen.DS1(gen.DS1Config{Events: 20, Seed: 2, InterArrival: event.Millisecond})
	for _, e := range evs[:10] {
		store.AppendEvent(e)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range evs[10:] {
		store.AppendEvent(e)
	}
	store.Abort() // crash: buffered tail lost

	store2, err := NewShardStore(Config{Dir: dir}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	res, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := walEvents(res.Records); len(got) != 10 {
		t.Fatalf("recovered %d events, want the 10 flushed ones", len(got))
	}
	store2.Close()
}

// writeCounter counts the writes that reach the segment file: one per
// flush while a flush group fits the writer's buffer.
type writeCounter struct {
	f      *os.File
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.f.Write(p)
}

// TestAppendSkipFlushesOnce: a failed shard quarantines its whole queue
// at once, and the Q records for it reach the log in one flush, not one
// per seq — each flush holds the log mutex every other shard's appends
// need, and with Fsync on it syncs the device.
func TestAppendSkipFlushesOnce(t *testing.T) {
	store, err := NewShardStore(Config{
		Dir: t.TempDir(), FlushEvery: 1 << 20, FlushBytes: 1 << 30, FlushInterval: time.Hour,
	}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	w := store.log.w
	cnt := &writeCounter{f: w.f}
	w.bw = bufio.NewWriterSize(cnt, 1<<16)
	seqs := make([]uint64, 500)
	for i := range seqs {
		seqs[i] = uint64(100 + i)
	}
	if err := store.AppendSkip(seqs...); err != nil {
		t.Fatal(err)
	}
	if cnt.writes != 1 {
		t.Fatalf("%d Q records reached the file in %d writes, want one flush", len(seqs), cnt.writes)
	}
	res, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var skipped []uint64
	for _, rec := range res.Marks {
		if rec.Kind == RecSkip {
			skipped = append(skipped, rec.Seq)
		}
	}
	if len(skipped) != len(seqs) || skipped[0] != seqs[0] || skipped[len(skipped)-1] != seqs[len(seqs)-1] {
		t.Fatalf("replayed %d Q records (%v...), want seqs %d..%d", len(skipped), skipped[:min(len(skipped), 3)], seqs[0], seqs[len(seqs)-1])
	}
}

func TestDeadLetterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if st, err := LoadDeadLetters(dir); err != nil || st != nil {
		t.Fatalf("empty dir: st=%v err=%v", st, err)
	}
	want := &DeadLetterState{
		Total: 9,
		Letters: []DeadLetterRecord{
			{Shard: 1, Seq: 44, Type: "A", Reason: "panic: boom", Payload: "A t=1"},
			{Shard: 0, Seq: 45, Type: "B", Reason: "panic: poison", Payload: "B t=2"},
		},
	}
	if err := SaveDeadLetters(dir, 1, want, false); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeadLetters(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total || len(got.Letters) != len(want.Letters) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want.Letters {
		if got.Letters[i] != want.Letters[i] {
			t.Fatalf("letter %d: got %+v, want %+v", i, got.Letters[i], want.Letters[i])
		}
	}
	// Corrupt file: error, not nil-and-ignore.
	path := filepath.Join(dir, "deadletters.snap")
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 1
	os.WriteFile(path, data, 0o644)
	if _, err := LoadDeadLetters(dir); err == nil {
		t.Fatal("accepted corrupt dead-letter file")
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	a := Fingerprint("q1", "shards=4")
	b := Fingerprint("q1", "shards=8")
	c := Fingerprint("q1s", "hards=4") // boundary shift must not collide
	if a == b || a == c {
		t.Fatalf("fingerprint collisions: %x %x %x", a, b, c)
	}
	if a != Fingerprint("q1", "shards=4") {
		t.Fatal("fingerprint not deterministic")
	}
}

// TestFlushPolicyTriggers pins each group-commit limit in isolation:
// the record count, the byte bound, the age bound (both the amortized
// append-path check and the exact batch-boundary check), and the
// empty-buffer no-op.
func TestFlushPolicyTriggers(t *testing.T) {
	evs := gen.DS1(gen.DS1Config{Events: 64, Seed: 4, InterArrival: event.Millisecond})
	open := func(t *testing.T, cfg Config) *ShardStore {
		t.Helper()
		cfg.Dir = t.TempDir()
		store, err := NewShardStore(cfg, 0, testFP)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return store
	}

	t.Run("count", func(t *testing.T) {
		store := open(t, Config{FlushEvery: 4, FlushBytes: 1 << 30, FlushInterval: time.Hour})
		for i, e := range evs[:3] {
			if err := store.AppendEvent(e); err != nil {
				t.Fatal(err)
			}
			if got := store.Unflushed(); got != i+1 {
				t.Fatalf("after %d appends Unflushed = %d", i+1, got)
			}
		}
		if err := store.AppendEvent(evs[3]); err != nil {
			t.Fatal(err)
		}
		if got := store.Unflushed(); got != 0 {
			t.Fatalf("4th append did not close the group: Unflushed = %d", got)
		}
	})

	t.Run("bytes", func(t *testing.T) {
		store := open(t, Config{FlushEvery: 1 << 20, FlushBytes: 1, FlushInterval: time.Hour})
		if err := store.AppendEvent(evs[0]); err != nil {
			t.Fatal(err)
		}
		if got := store.Unflushed(); got != 0 {
			t.Fatalf("byte bound did not flush: Unflushed = %d", got)
		}
	})

	t.Run("age-on-append", func(t *testing.T) {
		// The append path checks age only every 16th record; with the
		// interval at 1ns, records 1..15 stay buffered and the 16th
		// append flushes.
		store := open(t, Config{FlushEvery: 1 << 20, FlushBytes: 1 << 30, FlushInterval: time.Nanosecond})
		for _, e := range evs[:15] {
			if err := store.AppendEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		if got := store.Unflushed(); got != 15 {
			t.Fatalf("age checked too eagerly: Unflushed = %d, want 15", got)
		}
		if err := store.AppendEvent(evs[15]); err != nil {
			t.Fatal(err)
		}
		if got := store.Unflushed(); got != 0 {
			t.Fatalf("16th append did not run the age check: Unflushed = %d", got)
		}
	})

	t.Run("age-at-boundary", func(t *testing.T) {
		// FlushIfDue (the batch-boundary check) is exact: one overdue
		// record flushes regardless of the amortization stride.
		store := open(t, Config{FlushEvery: 1 << 20, FlushBytes: 1 << 30, FlushInterval: time.Nanosecond})
		if err := store.AppendEvent(evs[0]); err != nil {
			t.Fatal(err)
		}
		if got := store.Unflushed(); got != 1 {
			t.Fatalf("Unflushed = %d, want 1", got)
		}
		time.Sleep(time.Microsecond)
		if err := store.FlushIfDue(); err != nil {
			t.Fatal(err)
		}
		if got := store.Unflushed(); got != 0 {
			t.Fatalf("FlushIfDue left Unflushed = %d", got)
		}
	})

	t.Run("empty-noop", func(t *testing.T) {
		// The boundary check firing with nothing buffered (an idle shard
		// whose batch produced no records) must be a no-op, not an error
		// or a spurious sync.
		store := open(t, Config{FlushEvery: 4, FlushBytes: 1 << 30, FlushInterval: time.Nanosecond})
		for i := 0; i < 3; i++ {
			if err := store.FlushIfDue(); err != nil {
				t.Fatal(err)
			}
		}
		if got := store.Unflushed(); got != 0 {
			t.Fatalf("Unflushed = %d after no appends", got)
		}
	})
}

// TestFlushGroupSpansSnapshotRotation: a flush group open at snapshot
// time must not lose records. Save closes the group into the outgoing
// WAL generation before rotating, so every pre-Save record survives a
// crash right after the snapshot, while post-Save appends start a fresh
// group in the new WAL and die with an unflushed crash.
func TestFlushGroupSpansSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	store, err := NewShardStore(Config{
		Dir: dir, FlushEvery: 1 << 20, FlushBytes: 1 << 30, FlushInterval: time.Hour,
	}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	evs := gen.DS1(gen.DS1Config{Events: 20, Seed: 2, InterArrival: event.Millisecond})
	for _, e := range evs[:10] {
		if err := store.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Unflushed(); got != 10 {
		t.Fatalf("Unflushed = %d, want 10 buffered", got)
	}
	_, st := liveState(t, 50)
	st.LastSeq = 9
	if _, err := store.Save(st); err != nil {
		t.Fatal(err)
	}
	if got := store.Unflushed(); got != 0 {
		t.Fatalf("Save left the flush group open: Unflushed = %d", got)
	}
	for _, e := range evs[10:] {
		if err := store.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	store.Abort() // crash with an open group in the fresh WAL

	store2, err := NewShardStore(Config{Dir: dir}, 0, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	res, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil || res.State.LastSeq != 9 {
		t.Fatalf("snapshot not restored: %+v", res.State)
	}
	if got := walEvents(res.Records); len(got) != 10 {
		t.Fatalf("recovered %d WAL events, want the 10 pre-Save ones", len(got))
	}
}
