package checkpoint

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"encoding/binary"

	"cepshed/internal/event"
)

// Config configures durability for a runtime.
type Config struct {
	// Dir is the state directory; each shard's snapshot files and the
	// dead-letter checkpoint live in it (and a private input log's
	// segments, when the log is not shared).
	Dir string
	// EveryEvents is the snapshot interval in processed events per shard
	// (default 32768), and the number of events an input log segment
	// holds. A snapshot bounds log replay time after a crash; it does NOT
	// bound data loss — that is the flush policy's job — so the default
	// leans toward cheap steady-state over instant recovery (replaying
	// 32k events takes tens of milliseconds).
	EveryEvents int
	// FlushEvery bounds how many WAL records may sit in the write buffer
	// before a flush (default 1024). Together with FlushBytes and
	// FlushInterval it defines one flush group: match records join the
	// group instead of forcing their own flush, and the shard releases
	// the buffered matches only once the single covering flush has
	// happened (group commit). The loss window is bounded by whichever
	// limit closes the group first — under load that is FlushBytes or
	// FlushEvery, under a trickle FlushInterval. FlushEvery = 1
	// degenerates to a flush per record, the pre-group-commit behavior.
	FlushEvery int
	// FlushBytes bounds the buffered byte count before a flush (default
	// 48 KiB). It must stay below the writer's 64 KiB buffer: an
	// invisible bufio spill would make match records durable while the
	// shard still holds their deliveries, and a crash in that state
	// widens the undelivered-match window.
	FlushBytes int
	// FlushInterval bounds how long a record may sit buffered (default
	// 2ms). Checked on every append and on the shard's batch boundary —
	// there is no timer goroutine, so an idle shard relies on the batch
	// drain's idle flush instead.
	FlushInterval time.Duration
	// Fsync syncs WAL flushes and snapshot writes to the device. Off by
	// default: the contract then covers process crashes, not power loss
	// (docs/DURABILITY.md).
	Fsync bool
	// OnStage, when set, runs at named points of the snapshot save
	// protocol ("encoded", "tmp-written", "renamed", "floor-published").
	// It exists for fault injection: a panic here models a crash at that
	// point of the protocol. For a periodic snapshot the first three
	// stages run on the background writer goroutine, where the shard
	// contains the panic (the save fails, no worker restarts);
	// "floor-published" and every stage of a quiescent save (final
	// snapshot, import commit) run on the claiming worker.
	OnStage func(shard int, stage string)
}

// WithDefaults returns the config with zero fields defaulted.
func (c Config) WithDefaults() Config {
	if c.EveryEvents <= 0 {
		c.EveryEvents = 32768
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 1024
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 48 << 10
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	return c
}

// LoadResult is what a shard recovers from disk.
type LoadResult struct {
	// State is the newest decodable snapshot, nil when none exists (fresh
	// directory or all generations corrupt — CorruptSnaps tells which).
	State *ShardState
	// Records are the events of the shard's readable log tail, in log
	// order: those its routing accepts (minus its query's refusals) and
	// those tagged for it, all as RecEvent. Events at or below
	// State.LastSeq are still included; the caller skips them.
	Records []Record
	// Marks are the shard's own match and skip records, in log order: the
	// matches it already delivered and the seqs it quarantined. A boot
	// read shares them with the log's decoded set; they are read-only.
	Marks []Record
	// UsedPrev reports that the current snapshot was missing or corrupt
	// and the previous generation was restored instead.
	UsedPrev bool
	// CorruptSnaps counts snapshot generations that existed but failed to
	// decode; >0 with State==nil means data existed and was lost.
	CorruptSnaps int
	// Torn reports a truncated/corrupt WAL tail (expected after a crash).
	Torn bool
	// Ceded reports a shard whose state was handed to another node: it
	// restores nothing and replays nothing (see CedeShard).
	Ceded bool
	// StaleWAL counts the shard's per-shard WAL files of a format before
	// v3 that opening the store removed: their records are lost, and the
	// snapshots of that format fail to decode (a counted cold start).
	StaleWAL int
}

// ShardStore is one shard's durable state: a two-generation snapshot
// pair plus, in an input log, the records since the newest snapshot.
// The log is the store's own (NewShardStore) or a stream's shared one
// (Log.Store). All methods are called from the owning shard's
// goroutine only, except WriteSnapshot (see there).
type ShardStore struct {
	cfg   Config
	shard int
	fp    uint64

	log *Log
	own bool // the log is private to this store: closed and aborted with it
	tag Tag
	// routes selects the log's untagged events this shard replays; nil:
	// it replays nothing, not even its tagged records.
	routes func(*event.Event) bool
	// lastLSN is the end of this store's newest M record in the log.
	lastLSN uint64
	// floor/hasFloor are the seq floor of the snapshot WriteSnapshot
	// last published; PublishFloor hands it to the log's compaction.
	floor    uint64
	hasFloor bool
	// ceded: the state migrated away; see CedeShard.
	ceded bool
	// staleWAL: see LoadResult.StaleWAL.
	staleWAL int
}

func (s *ShardStore) name() string { return fmt.Sprintf("shard-%03d", s.shard) }

func (s *ShardStore) path(suffix string) string {
	return filepath.Join(s.cfg.Dir, s.name()+suffix)
}

// NewShardStore opens (creating as needed) the store for one shard with
// a private input log (segments shard-NNN-*.wal in cfg.Dir), opened for
// append immediately so records written before the first snapshot are
// replayable too. A ceded tombstone (written when the shard's state was
// handed to another node) sweeps the old files first: the new owner
// already snapshotted that state, so replaying it here would re-emit
// every match the new owner delivered.
func NewShardStore(cfg Config, shard int, fp uint64) (*ShardStore, error) {
	cfg = cfg.WithDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	probe := &ShardStore{cfg: cfg, shard: shard}
	if _, err := os.Stat(probe.path(cededSuffix)); err == nil {
		segs, _ := filepath.Glob(filepath.Join(cfg.Dir, probe.name()+"-*.wal"))
		for _, f := range append(segs, probe.path(".snap"), probe.path(".snap.prev"), probe.path(".snap.tmp"), probe.path(cededSuffix)) {
			if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		if cfg.Fsync {
			syncDir(cfg.Dir)
		}
	}
	l, err := openLog(cfg, cfg.Dir, probe.name(), fp)
	if err != nil {
		return nil, err
	}
	s, err := l.Store(cfg, shard, fp, Tag{FP: fp, Shard: shard}, func(*event.Event) bool { return true }, nil)
	if err != nil {
		l.Close()
		return nil, err
	}
	s.own = true
	return s, nil
}

// Store opens the snapshot pair of one query-shard whose records live
// in this log under tag t. routes selects the untagged events the shard
// replays (nil: it replays nothing); want is called when the shard's
// snapshot floor pins the log (it must not block). A ceded tombstone
// (CedeShard) drops the snapshots: Load then restores nothing and
// replays nothing, and the tombstone stays until the shard's next
// snapshot supersedes it.
func (l *Log) Store(cfg Config, shard int, fp uint64, t Tag, routes func(*event.Event) bool, want func()) (*ShardStore, error) {
	cfg = cfg.WithDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &ShardStore{cfg: cfg, shard: shard, fp: fp, log: l, tag: t, routes: routes}
	for _, suf := range []string{".wal", ".wal.prev"} {
		if err := os.Remove(s.path(suf)); err == nil {
			s.staleWAL++
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	if _, err := os.Stat(s.path(cededSuffix)); err == nil {
		s.ceded = true
		for _, suf := range []string{".snap", ".snap.prev", ".snap.tmp"} {
			if err := os.Remove(s.path(suf)); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	l.register(t, want)
	return s, nil
}

// cededSuffix marks a shard whose state migrated to another node. The
// marker is written AFTER the importing node has durably snapshotted
// the state, so the files it shadows are redundant, never the only
// copy.
const cededSuffix = ".ceded"

// CedeShard tombstones one shard's files in dir: a node that boots (or
// reopens) this store cold-starts the shard instead of replaying state
// that now lives elsewhere — replaying it would duplicate emissions.
// Used by the failover path, where the source process is dead and
// cannot retire its own store.
func CedeShard(dir string, shard int) error {
	return os.WriteFile(
		filepath.Join(dir, fmt.Sprintf("shard-%03d%s", shard, cededSuffix)),
		[]byte("ceded\n"), 0o644)
}

// Retire closes the store and tombstones its files — the planned-
// handoff source's last act after the target acknowledged a durable
// import. The shard's state now lives on the target; replaying it here
// after a restart of this node would re-emit history another node owns.
func (s *ShardStore) Retire() error {
	if err := s.Close(); err != nil {
		return err
	}
	return CedeShard(s.cfg.Dir, s.shard)
}

// EveryEvents returns the effective snapshot interval.
func (s *ShardStore) EveryEvents() int { return s.cfg.EveryEvents }

func (s *ShardStore) stage(name string) {
	if s.cfg.OnStage != nil {
		s.cfg.OnStage(s.shard, name)
	}
}

// AppendEvent logs one input event before the engine processes it; the
// record joins the current flush group and the group-commit policy
// decides when the group reaches the OS.
func (s *ShardStore) AppendEvent(e *event.Event) error { return s.log.appendEvent(e) }

// AppendMatchKey logs a match key under the group-commit policy: the
// record joins the current flush group instead of forcing its own
// flush. The caller (the shard) must hold the match back until
// Unflushed reports zero — the record must be durable BEFORE the match
// is handed to OnMatches, so a crash after delivery can never re-emit it
// on replay.
func (s *ShardStore) AppendMatchKey(seq uint64, key string) error {
	lsn, err := s.log.appendMatch(s.tag, seq, key)
	s.lastLSN = lsn
	return err
}

// AppendSkip logs quarantined seqs and flushes once for all of them, so
// replay after the next crash skips them: a poison event instead of
// crash-looping on it, a failed shard's drained queue without a flush
// per event.
func (s *ShardStore) AppendSkip(seqs ...uint64) error { return s.log.appendSkip(s.tag, seqs) }

// Flush forces buffered log records to the OS (and the device when
// Fsync is on). A no-op with an empty buffer, so calling it on a timer
// or an idle batch boundary costs nothing.
func (s *ShardStore) Flush() error { return s.log.Flush() }

// LSN returns the log position this store's newest match record ends at.
func (s *ShardStore) LSN() uint64 { return s.lastLSN }

// Durable reports whether the log is flushed through lsn.
func (s *ShardStore) Durable(lsn uint64) bool { return s.log.Durable(lsn) }

// Unflushed reports how many records of a private log are still
// buffered — on a shared log, 1 while this store's newest match record
// is. Zero means every match record appended so far is durable (to the
// OS; to the device with Fsync) — the shard's signal that held-back
// matches may be released.
func (s *ShardStore) Unflushed() int {
	if s.own {
		return s.log.pending()
	}
	if s.log.Durable(s.lastLSN) {
		return 0
	}
	return 1
}

// FlushIfDue applies the full policy — including an exact age check —
// outside an append; the shard calls it at batch boundaries so a
// trickle of records still flushes within FlushInterval even when no
// single append trips the policy.
func (s *ShardStore) FlushIfDue() error { return s.log.FlushIfDue() }

// Save writes a new snapshot atomically and publishes its floor.
// Protocol (each boundary is a crash-safe point; see docs/DURABILITY.md):
//
//  1. encode + write to shard-NNN.snap.tmp, flush (and fsync when on)
//  2. rename snap -> snap.prev     (previous generation preserved)
//  3. rename snap.tmp -> snap      (atomic publish)
//  4. flush the log, publish the snapshot's seq floor to its compaction
//
// A crash anywhere leaves snap or snap.prev plus the log records above
// their floors. Returns the snapshot byte size.
//
// Save runs the whole protocol inline on the caller's goroutine; the
// async path splits it into WriteSnapshot (steps 1-3, safe off-thread)
// followed by PublishFloor (step 4, shard goroutine only).
func (s *ShardStore) Save(st *ShardState) (int, error) {
	n, err := s.WriteSnapshot(st)
	if err != nil {
		return 0, err
	}
	if err := s.PublishFloor(); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteSnapshot encodes st and publishes it atomically (protocol steps
// 1-3: tmp write, generation rename, publish rename). Unlike every
// other ShardStore method, WriteSnapshot is safe to call from a
// background goroutine while the shard keeps appending to the log: it
// touches only the snapshot file family and allocates its own encoder.
// The caller must not overlap two WriteSnapshot calls and must call
// PublishFloor from the shard goroutine once the write has succeeded.
func (s *ShardStore) WriteSnapshot(st *ShardState) (int, error) {
	img := EncodeShardState(st, s.fp)
	s.stage("encoded")

	tmp := s.path(".snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return 0, err
	}
	if s.cfg.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	s.stage("tmp-written")

	cur := s.path(".snap")
	if err := os.Rename(cur, s.path(".snap.prev")); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	if err := os.Rename(tmp, cur); err != nil {
		return 0, err
	}
	s.floor, s.hasFloor = st.LastSeq, st.HasSeq
	if s.ceded {
		// The new snapshot supersedes the tombstone's "restore nothing".
		if err := os.Remove(s.path(cededSuffix)); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		s.ceded = false
	}
	s.stage("renamed")
	return len(img), nil
}

// PublishFloor closes the flush group behind a just-published snapshot
// (protocol step 4) and hands the snapshot's seq floor to the log's
// compaction: the log keeps every record above the floors of its
// query-shards. Records appended between an async snapshot's capture
// point and this call sit above the captured floor, so Load still
// replays them. Shard goroutine only.
func (s *ShardStore) PublishFloor() error {
	if err := s.log.Flush(); err != nil {
		return err
	}
	s.log.cover(s.tag, s.floor, s.hasFloor)
	s.stage("floor-published")
	return nil
}

// Load reads the newest usable snapshot plus the shard's readable log
// records. The log is flushed first so records appended this process
// lifetime are visible; it stays open for further appends.
func (s *ShardStore) Load() (*LoadResult, error) { return s.load(false) }

// LoadBoot is Load for boot recovery: it filters what the log's open
// scan decoded, sharing its events and marks, and takes no event
// appended since, as those were offered to this incarnation's queues.
// It fails once the log's owner has called EndBoot.
func (s *ShardStore) LoadBoot() (*LoadResult, error) { return s.load(true) }

func (s *ShardStore) load(boot bool) (*LoadResult, error) {
	res := &LoadResult{Ceded: s.ceded, StaleWAL: s.staleWAL}
	if s.ceded {
		return res, nil
	}
	s.loadSnapshots(res)
	if res.State != nil {
		s.log.cover(s.tag, res.State.LastSeq, res.State.HasSeq)
	}
	if s.routes == nil {
		return res, nil // this shard replays nothing
	}
	var err error
	res.Records, res.Marks, res.Torn, err = s.log.tail(s.tag, s.routes, boot)
	return res, err
}

// LoadSnapshots reads one shard's newest decodable snapshot from dir
// without opening a store; a ceded tombstone yields Ceded and nothing
// else.
func LoadSnapshots(dir string, shard int, fp uint64) *LoadResult {
	s := &ShardStore{cfg: Config{Dir: dir}, shard: shard, fp: fp}
	res := &LoadResult{}
	if _, err := os.Stat(s.path(cededSuffix)); err == nil {
		res.Ceded = true
		return res
	}
	s.loadSnapshots(res)
	return res
}

// loadSnapshots fills res with the newest decodable snapshot generation.
func (s *ShardStore) loadSnapshots(res *LoadResult) {
	loadSnap := func(path string) *ShardState {
		data, err := os.ReadFile(path)
		if err != nil {
			if !os.IsNotExist(err) {
				res.CorruptSnaps++
			}
			return nil
		}
		st, err := DecodeShardState(data, s.fp)
		if err != nil {
			res.CorruptSnaps++
			return nil
		}
		return st
	}
	res.State = loadSnap(s.path(".snap"))
	if res.State == nil {
		if st := loadSnap(s.path(".snap.prev")); st != nil {
			res.State = st
			res.UsedPrev = true
		}
	}
}

// Close leaves the log's compaction floor and flushes the log —
// closing it when it is the store's own (clean shutdown).
func (s *ShardStore) Close() error {
	s.log.unregister(s.tag)
	if s.own {
		return s.log.Close()
	}
	return s.log.Flush()
}

// Abort drops out without flushing — crash simulation for recovery
// tests: a private log loses its buffered records; a shared log is its
// owner's to abort, and the store only leaves its compaction floor.
func (s *ShardStore) Abort() {
	s.log.unregister(s.tag)
	if s.own {
		s.log.Abort()
	}
}

// syncDir best-effort fsyncs a directory so renames survive power loss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// DeadLetterRecord mirrors runtime.DeadLetter without importing the
// runtime package (which imports this one).
type DeadLetterRecord struct {
	Shard   int
	Seq     uint64
	Type    string
	Reason  string
	Payload string
}

// DeadLetterState is the dead-letter queue checkpoint: the monotone
// total plus the retained ring, oldest first.
type DeadLetterState struct {
	Total   uint64
	Letters []DeadLetterRecord
}

const dlqFile = "deadletters.snap"

// encodeDeadLettersImage renders a complete dead-letter file image.
func encodeDeadLettersImage(st *DeadLetterState) []byte {
	var e Encoder
	e.Uvarint(st.Total)
	e.Uvarint(uint64(len(st.Letters)))
	for i := range st.Letters {
		l := &st.Letters[i]
		e.Varint(int64(l.Shard))
		e.Uvarint(l.Seq)
		e.Str(l.Type)
		e.Str(l.Reason)
		e.Str(l.Payload)
	}
	body := e.Bytes()
	img := putHeader(nil, dlqMagic, 0)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(body)))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(body))
	return append(img, body...)
}

// SaveDeadLetters atomically replaces the dead-letter checkpoint.
// Callers on different shard goroutines may race; each writes its own
// temp file and the last rename wins, which is fine for a bounded
// postmortem log.
func SaveDeadLetters(dir string, owner int, st *DeadLetterState, fsync bool) error {
	img := encodeDeadLettersImage(st)
	tmp := filepath.Join(dir, fmt.Sprintf("%s.tmp%d", dlqFile, owner))
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		return err
	}
	if fsync {
		if f, err := os.Open(tmp); err == nil {
			f.Sync()
			f.Close()
		}
	}
	return os.Rename(tmp, filepath.Join(dir, dlqFile))
}

// LoadDeadLetters reads the dead-letter checkpoint; (nil, nil) when none
// exists, an error when it exists but cannot be decoded.
func LoadDeadLetters(dir string) (*DeadLetterState, error) {
	data, err := os.ReadFile(filepath.Join(dir, dlqFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return DecodeDeadLetters(data)
}

// DecodeDeadLetters parses a dead-letter checkpoint image.
func DecodeDeadLetters(data []byte) (*DeadLetterState, error) {
	rest, err := checkHeader(data, dlqMagic, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: short frame", ErrCorrupt)
	}
	bodyLen := binary.LittleEndian.Uint32(rest[:4])
	crc := binary.LittleEndian.Uint32(rest[4:8])
	body := rest[8:]
	if uint64(bodyLen) > maxSnapshotBody || uint64(bodyLen) > uint64(len(body)) {
		return nil, fmt.Errorf("%w: body length past end", ErrCorrupt)
	}
	body = body[:bodyLen]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: dead-letter body CRC mismatch", ErrCorrupt)
	}
	d := NewDecoder(body)
	st := &DeadLetterState{Total: d.Uvarint()}
	n := d.Count(5)
	for i := 0; i < n && d.Err() == nil; i++ {
		st.Letters = append(st.Letters, DeadLetterRecord{
			Shard:   int(d.Varint()),
			Seq:     d.Uvarint(),
			Type:    d.Str(),
			Reason:  d.Str(),
			Payload: d.Str(),
		})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return st, nil
}
