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
	// Dir is the state directory; one file family per shard plus the
	// dead-letter checkpoint live in it.
	Dir string
	// EveryEvents is the snapshot interval in processed events per shard
	// (default 32768). A snapshot bounds WAL replay time after a crash;
	// it does NOT bound data loss — that is the flush policy's job — so
	// the default leans toward cheap steady-state over instant recovery
	// (replaying 32k events takes tens of milliseconds).
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
	// protocol ("encoded", "tmp-written", "renamed", "rotated"). It
	// exists for fault injection: a panic here models a crash at that
	// point of the protocol. For a periodic snapshot the first three
	// stages run on the background writer goroutine, where the shard
	// contains the panic (the save fails, no worker restarts); "rotated"
	// and every stage of a quiescent save (final snapshot, import
	// commit) run on the claiming worker.
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
	// Records are ALL readable WAL records, previous generation first,
	// unfiltered; the caller filters event records against State.LastSeq.
	Records []Record
	// UsedPrev reports that the current snapshot was missing or corrupt
	// and the previous generation was restored instead.
	UsedPrev bool
	// CorruptSnaps counts snapshot generations that existed but failed to
	// decode; >0 with State==nil means data existed and was lost.
	CorruptSnaps int
	// Torn reports a truncated/corrupt WAL tail (expected after a crash).
	Torn bool
	// SnapBytes/SnapTakenNs describe the restored snapshot file.
	SnapBytes   int64
	SnapTakenNs int64
}

// ShardStore is one shard's durable state: a two-generation snapshot
// pair plus the write-ahead log since the newest snapshot. All methods
// are called from the owning shard's goroutine only.
type ShardStore struct {
	cfg   Config
	shard int
	fp    uint64

	wal *walWriter
	enc Encoder // payload scratch
}

func (s *ShardStore) path(suffix string) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("shard-%03d%s", s.shard, suffix))
}

// NewShardStore opens (creating as needed) the store for one shard. The
// WAL is opened for append immediately so records written before the
// first snapshot are replayable too. A ceded tombstone (written when
// the shard's state was handed to another node) sweeps the old files
// first: the new owner already snapshotted that state, so replaying it
// here would re-emit every match the new owner delivered.
func NewShardStore(cfg Config, shard int, fp uint64) (*ShardStore, error) {
	cfg = cfg.WithDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &ShardStore{cfg: cfg, shard: shard, fp: fp}
	if _, err := os.Stat(s.path(cededSuffix)); err == nil {
		if err := s.sweepCeded(); err != nil {
			return nil, err
		}
	}
	w, err := openWAL(s.path(".wal"), fp, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	s.wal = w
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

// sweepCeded removes the shard's snapshot/WAL generations plus the
// tombstone itself, leaving a cold directory for this shard.
func (s *ShardStore) sweepCeded() error {
	for _, suf := range []string{".snap", ".snap.prev", ".snap.tmp", ".wal", ".wal.prev", cededSuffix} {
		if err := os.Remove(s.path(suf)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if s.cfg.Fsync {
		syncDir(s.cfg.Dir)
	}
	return nil
}

// Retire closes the store and tombstones its files — the planned-
// handoff source's last act after the target acknowledged a durable
// import. The shard's state now lives on the target; keeping readable
// snapshot/WAL generations here would make a restart of this node
// replay (and re-emit) history another node owns.
func (s *ShardStore) Retire() error {
	if err := s.wal.close(); err != nil {
		return err
	}
	return s.sweepCeded()
}

// Shard returns the shard index this store belongs to.
func (s *ShardStore) Shard() int { return s.shard }

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
func (s *ShardStore) AppendEvent(e *event.Event) error {
	if err := s.wal.append(RecEvent, encodeEventRecord(&s.enc, e)); err != nil {
		return err
	}
	return s.maybeFlush()
}

// AppendMatchKey logs a match key under the group-commit policy: the
// record joins the current flush group instead of forcing its own
// flush. The caller (the shard) must hold the match back until
// Unflushed reports zero — the record must be durable BEFORE the match
// is handed to OnMatches, so a crash after delivery can never re-emit it
// on replay.
func (s *ShardStore) AppendMatchKey(seq uint64, key string) error {
	if err := s.wal.append(RecMatch, encodeMatchRecord(&s.enc, seq, key)); err != nil {
		return err
	}
	return s.maybeFlush()
}

// AppendSkip logs a quarantined seq and flushes, so replay after the
// next crash skips the poison event instead of crash-looping on it.
func (s *ShardStore) AppendSkip(seq uint64) error {
	if err := s.wal.append(RecSkip, encodeSkipRecord(&s.enc, seq)); err != nil {
		return err
	}
	return s.wal.flush()
}

// Flush forces buffered WAL records to the OS (and the device when
// Fsync is on). A no-op with an empty buffer, so calling it on a timer
// or an idle batch boundary costs nothing.
func (s *ShardStore) Flush() error {
	if s.wal.pending == 0 {
		return nil
	}
	return s.wal.flush()
}

// Unflushed reports how many appended records are still buffered. Zero
// means every record appended so far is durable (to the OS; to the
// device with Fsync) — the shard's signal that held-back matches may be
// released.
func (s *ShardStore) Unflushed() int { return s.wal.pending }

// maybeFlush applies the group-commit policy on the append path: flush
// once the group reaches FlushEvery records, FlushBytes bytes, or
// FlushInterval age. The count/byte checks are branch-cheap and run on
// every append; the age check needs a clock read, so it is amortized to
// every 16th record — the worst case stretches the age bound by 15
// records' worth of appends, and FlushIfDue at the batch boundary
// checks the clock exactly.
func (s *ShardStore) maybeFlush() error {
	w := s.wal
	if w.pending >= s.cfg.FlushEvery || w.pendingBytes >= s.cfg.FlushBytes {
		return w.flush()
	}
	if w.pending&15 == 0 &&
		time.Now().UnixNano()-w.firstPendingNs >= int64(s.cfg.FlushInterval) {
		return w.flush()
	}
	return nil
}

// FlushIfDue applies the full policy — including an exact age check —
// outside an append; the shard calls it at batch boundaries so a
// trickle of records still flushes within FlushInterval even when no
// single append trips the policy.
func (s *ShardStore) FlushIfDue() error {
	w := s.wal
	if w.pending == 0 {
		return nil
	}
	if w.pending >= s.cfg.FlushEvery || w.pendingBytes >= s.cfg.FlushBytes ||
		time.Now().UnixNano()-w.firstPendingNs >= int64(s.cfg.FlushInterval) {
		return w.flush()
	}
	return nil
}

// Save writes a new snapshot atomically and rotates the WAL. Protocol
// (each boundary is a crash-safe point; see docs/DURABILITY.md):
//
//  1. encode + write to shard-NNN.snap.tmp, flush (and fsync when on)
//  2. rename snap -> snap.prev     (previous generation preserved)
//  3. rename snap.tmp -> snap      (atomic publish)
//  4. flush + close WAL, rename wal -> wal.prev, open fresh wal
//
// A crash before 3 leaves the old snap (or snap.prev) plus an intact
// WAL; a crash between 3 and 4 leaves the new snap plus a WAL whose
// pre-snapshot records Load filters out by seq. Returns the snapshot
// byte size.
//
// Save runs the whole protocol inline on the caller's goroutine; the
// async path splits it into WriteSnapshot (steps 1-3, safe off-thread)
// followed by RotateWAL (step 4, shard goroutine only).
func (s *ShardStore) Save(st *ShardState) (int, error) {
	n, err := s.WriteSnapshot(st)
	if err != nil {
		return 0, err
	}
	if err := s.RotateWAL(); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteSnapshot encodes st and publishes it atomically (protocol steps
// 1-3: tmp write, generation rename, publish rename). Unlike every
// other ShardStore method, WriteSnapshot is safe to call from a
// background goroutine while the shard keeps appending to the WAL: it
// touches only the snapshot file family and allocates its own encoder.
// The caller must not overlap two WriteSnapshot calls and must call
// RotateWAL from the shard goroutine once the write has succeeded.
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
	s.stage("renamed")
	return len(img), nil
}

// RotateWAL retires the current WAL generation behind a just-published
// snapshot (protocol step 4): everything up to that snapshot is now
// redundant, but one previous generation is kept so a torn current
// snapshot can still recover from snap.prev + wal.prev + wal. Records
// appended between an async snapshot's capture point and this rotation
// land in wal.prev, above the snapshot's seq floor, so Load still
// replays them. Shard goroutine only.
func (s *ShardStore) RotateWAL() error {
	if err := s.wal.close(); err != nil {
		return err
	}
	if err := os.Rename(s.path(".wal"), s.path(".wal.prev")); err != nil && !os.IsNotExist(err) {
		return err
	}
	w, err := openWAL(s.path(".wal"), s.fp, s.cfg.Fsync)
	if err != nil {
		return err
	}
	s.wal = w
	if s.cfg.Fsync {
		syncDir(s.cfg.Dir)
	}
	s.stage("rotated")
	return nil
}

// Load reads the newest usable snapshot plus every readable WAL record
// (wal.prev then wal). The open WAL writer is flushed first so records
// appended this process lifetime are visible; the writer stays open for
// further appends.
func (s *ShardStore) Load() (*LoadResult, error) {
	if err := s.wal.flush(); err != nil {
		return nil, err
	}
	res := &LoadResult{}

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
		res.SnapBytes = int64(len(data))
		res.SnapTakenNs = st.TakenNs
		return st
	}
	res.State = loadSnap(s.path(".snap"))
	if res.State == nil {
		if st := loadSnap(s.path(".snap.prev")); st != nil {
			res.State = st
			res.UsedPrev = true
		}
	}

	for _, p := range []string{s.path(".wal.prev"), s.path(".wal")} {
		recs, torn, err := readWALFile(p, s.fp)
		if err != nil {
			// Unreadable header: treat like a torn file — recover what the
			// snapshot covers and count the damage.
			res.Torn = true
			continue
		}
		res.Records = append(res.Records, recs...)
		res.Torn = res.Torn || torn
	}
	return res, nil
}

// Close flushes and closes the WAL (clean shutdown).
func (s *ShardStore) Close() error { return s.wal.close() }

// Abort closes the WAL without flushing, dropping buffered records —
// crash simulation for recovery tests.
func (s *ShardStore) Abort() { s.wal.abort() }

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

// TakenNow is the wall-clock stamp recorded into snapshots.
func TakenNow() int64 { return time.Now().UnixNano() }
