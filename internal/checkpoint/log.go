package checkpoint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/event"
)

// Log is one input log per stream: every accepted event is appended
// once, before fan-out, and every query-shard fed from the stream keeps
// only its snapshots. Match (M) and skip (Q) records join the same log
// tagged (query, shard), so one group commit covers every query at
// once. Recovery re-filters the log through a query-shard's routing
// (Tail) from its snapshot's seq floor.
//
// On disk the log is a family of segment files log-NNNNNNNN.wal in one
// directory, each framed like a per-shard WAL. A segment closes after
// Config.EveryEvents event records; at each close the log drops the
// oldest segments whose events every registered query-shard's durable
// snapshot already covers, and asks the query-shards that still pin the
// oldest segment for a fresh snapshot (Register's want hook), so an
// idle query-shard cannot hold the log back forever.
//
// Positions are event seqs: replay and compaction assume seqs rise in
// log order, as they do for one stamping producer.
//
// All methods are safe for concurrent use.
type Log struct {
	cfg    Config
	dir    string
	prefix string // segment files are <prefix>-NNNNNNNN.wal
	fp     uint64

	mu        sync.Mutex
	w         *walWriter
	segs      []segment // retained, oldest first; the last is open
	segEvents int
	enc       Encoder
	appended  uint64 // framed bytes appended since open (the LSN clock)
	closed    bool
	stores    map[Tag]*coverage

	flushed atomic.Uint64 // LSN every record up to which is durable
	routed  atomic.Uint64 // 1 + highest seq with its queue places claimed; 0: none
}

type segment struct {
	id     uint64
	maxSeq uint64
	hasSeq bool
}

// coverage is one registered query-shard's durable snapshot floor.
type coverage struct {
	seq  uint64
	has  bool
	want func()
}

func segPath(dir, prefix string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d.wal", prefix, id))
}

// segmentIDs lists the ids of the segments present in dir, ascending.
func segmentIDs(dir, prefix string) ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, prefix+"-*.wal"))
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name)[len(prefix):], "-%08d.wal", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// OpenLog opens (creating as needed) the log in dir. Every segment is
// scanned once for its highest seq; a segment whose header is foreign
// is rotated aside to .corrupt, and the newest one is repaired and
// reopened for append.
func OpenLog(cfg Config, dir string, fp uint64) (*Log, error) { return openLog(cfg, dir, "log", fp) }

func openLog(cfg Config, dir, prefix string, fp uint64) (*Log, error) {
	cfg = cfg.WithDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, dir: dir, prefix: prefix, fp: fp, stores: map[Tag]*coverage{}}
	ids, err := segmentIDs(dir, prefix)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		sg := segment{id: id}
		_, err := readWALFile(l.path(id), fp, func(r Record) {
			if r.Kind == RecEvent || r.Kind == RecTagged {
				sg.note(r.Seq)
			}
		})
		if err != nil {
			if err := os.Rename(l.path(id), l.path(id)+".corrupt"); err != nil {
				return nil, err
			}
			continue
		}
		l.segs = append(l.segs, sg)
	}
	if len(l.segs) == 0 {
		l.segs = append(l.segs, segment{id: 1})
	}
	w, err := openWAL(l.path(l.last().id), fp, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	l.w = w
	return l, nil
}

func (l *Log) path(id uint64) string { return segPath(l.dir, l.prefix, id) }

func (l *Log) last() *segment { return &l.segs[len(l.segs)-1] }

// note folds one event's seq into the segment's high-water mark.
func (sg *segment) note(seq uint64) {
	if !sg.hasSeq || seq > sg.maxSeq {
		sg.maxSeq, sg.hasSeq = seq, true
	}
}

// Batch is one producer's contribution to the log, appended atomically
// with respect to flushes: a refusal can never become durable without
// its event, or the event without its refusals.
type Batch struct {
	Events  []*event.Event // E records: routed at replay like the fan-out did
	Tagged  []Tagged       // T records: single-target arrivals
	Refused []Refusal      // R records
}

// Tagged is one single-target event.
type Tagged struct {
	Tag Tag
	E   *event.Event
}

// Refusal is one (query, seq) pair the query's door refused.
type Refusal struct{ FP, Seq uint64 }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	clear(b.Events)
	clear(b.Tagged)
	b.Events, b.Tagged, b.Refused = b.Events[:0], b.Tagged[:0], b.Refused[:0]
}

// AppendBatch appends every record of b under one lock acquisition and
// applies the group-commit policy once.
func (l *Log) AppendBatch(b *Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	for _, e := range b.Events {
		if err := l.appendLocked(RecEvent, encodeEventRecord(&l.enc, e)); err != nil {
			return err
		}
		l.noteEvent(e.Seq)
	}
	for _, t := range b.Tagged {
		if err := l.appendLocked(RecTagged, encodeTaggedRecord(&l.enc, t.Tag, t.E)); err != nil {
			return err
		}
		l.noteEvent(t.E.Seq)
	}
	for _, r := range b.Refused {
		if err := l.appendLocked(RecRefused, encodeRefusedRecord(&l.enc, r.FP, r.Seq)); err != nil {
			return err
		}
	}
	return l.policyLocked(true)
}

// appendEvent appends one untagged E record (a private log's producer).
func (l *Log) appendEvent(e *event.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if err := l.appendLocked(RecEvent, encodeEventRecord(&l.enc, e)); err != nil {
		return err
	}
	l.noteEvent(e.Seq)
	return l.policyLocked(false)
}

// pending returns how many appended records are still buffered.
func (l *Log) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.pending
}

// MarkRouted records that every event up to seq has its place in the
// order of the queues it was routed to — sent, or claimed to be sent
// (the watermark an idle query-shard's snapshot may claim once nothing
// claimed is unsent; see Routed).
func (l *Log) MarkRouted(seq uint64) {
	for {
		cur := l.routed.Load()
		if cur > seq || l.routed.CompareAndSwap(cur, seq+1) {
			return
		}
	}
}

// Routed returns the routed watermark, ok=false before any event.
func (l *Log) Routed() (seq uint64, ok bool) {
	r := l.routed.Load()
	return r - 1, r > 0
}

// MaxSeq returns the highest event seq in the retained log.
func (l *Log) MaxSeq() (seq uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sg := range l.segs {
		if sg.hasSeq && (!ok || sg.maxSeq > seq) {
			seq, ok = sg.maxSeq, true
		}
	}
	return seq, ok
}

func (l *Log) noteEvent(seq uint64) {
	l.last().note(seq)
	l.segEvents++
}

// appendMatch appends one M record and returns the LSN that must be
// durable before the match may be delivered.
func (l *Log) appendMatch(t Tag, seq uint64, key string) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, os.ErrClosed
	}
	if err := l.appendLocked(RecMatch, encodeMatchRecord(&l.enc, t, seq, key)); err != nil {
		return 0, err
	}
	return l.appended, l.policyLocked(false)
}

// appendSkip appends one Q record per seq and flushes them once.
func (l *Log) appendSkip(t Tag, seqs []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	for _, seq := range seqs {
		if err := l.appendLocked(RecSkip, encodeSkipRecord(&l.enc, t, seq)); err != nil {
			return err
		}
	}
	return l.flushLocked()
}

func (l *Log) appendLocked(kind byte, payload []byte) error {
	before := l.w.pendingBytes
	if err := l.w.append(kind, payload); err != nil {
		return err
	}
	l.appended += uint64(l.w.pendingBytes - before)
	return nil
}

// policyLocked is the group-commit policy plus segment rotation: flush
// once the group reaches FlushEvery records, FlushBytes bytes or
// FlushInterval age; close the segment after EveryEvents events. The
// age check needs a clock read, so a single-record append (exact
// false) makes it only on every 16th record of the group — the worst
// case stretches the age bound by 15 records' worth of appends, and
// FlushIfDue at the shard's batch boundary checks the clock exactly.
func (l *Log) policyLocked(exact bool) error {
	if l.dueLocked(exact) {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	if l.segEvents >= l.cfg.EveryEvents {
		return l.rotateLocked()
	}
	return nil
}

func (l *Log) flushLocked() error {
	if l.w.pending == 0 {
		return nil
	}
	if err := l.w.flush(); err != nil {
		return err
	}
	l.flushed.Store(l.appended)
	return nil
}

// Flush makes every appended record durable (to the OS; to the device
// with Fsync). A no-op when nothing is buffered.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// FlushIfDue applies the flush half of the policy, with an exact age
// check, outside an append.
func (l *Log) FlushIfDue() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.dueLocked(true) {
		return nil
	}
	return l.flushLocked()
}

// dueLocked reports whether the open flush group must close now.
func (l *Log) dueLocked(exactAge bool) bool {
	w := l.w
	return w.pending > 0 && (w.pending >= l.cfg.FlushEvery || w.pendingBytes >= l.cfg.FlushBytes ||
		(exactAge || w.pending&15 == 0) && time.Now().UnixNano()-w.firstPendingNs >= int64(l.cfg.FlushInterval))
}

// Durable reports whether every record up to lsn has been flushed.
func (l *Log) Durable(lsn uint64) bool { return l.flushed.Load() >= lsn }

// rotateLocked closes the open segment, opens the next, and compacts.
func (l *Log) rotateLocked() error {
	if err := l.w.close(); err != nil {
		return err
	}
	l.flushed.Store(l.appended)
	id := l.last().id + 1
	w, err := openWAL(l.path(id), l.fp, l.cfg.Fsync)
	if err != nil {
		return err
	}
	l.w = w
	l.segs = append(l.segs, segment{id: id})
	l.segEvents = 0
	l.compactLocked()
	if l.cfg.Fsync {
		syncDir(l.dir)
	}
	return nil
}

// compactLocked deletes the oldest closed segments whose events every
// registered query-shard's snapshot covers, then asks each query-shard
// whose floor still lies below the oldest retained segment's events for
// a snapshot. Match and skip records in a dropped segment belong to
// events inside it, so no replay can need them.
func (l *Log) compactLocked() {
	var floor uint64
	all, none := true, false // all: no store registered
	for _, c := range l.stores {
		if !c.has {
			none = true
			break
		}
		if all || c.seq < floor {
			floor = c.seq
		}
		all = false
	}
	drop := 0
	for drop < len(l.segs)-1 {
		sg := l.segs[drop]
		if sg.hasSeq && (none || (!all && sg.maxSeq > floor)) {
			break
		}
		if err := os.Remove(l.path(sg.id)); err != nil && !os.IsNotExist(err) {
			break
		}
		drop++
	}
	l.segs = l.segs[drop:]
	oldest := l.segs[0]
	if len(l.segs) < 2 || !oldest.hasSeq {
		return
	}
	for _, c := range l.stores {
		if (!c.has || c.seq < oldest.maxSeq) && c.want != nil {
			c.want()
		}
	}
}

// register adds a query-shard to the compaction floor; want is called
// (under the log's lock: it must not block) when it pins the log.
func (l *Log) register(t Tag, want func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stores[t] = &coverage{want: want}
}

func (l *Log) unregister(t Tag) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.stores, t)
}

// cover publishes a query-shard's durable snapshot floor.
func (l *Log) cover(t Tag, seq uint64, has bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.stores[t]; ok {
		c.seq, c.has = seq, has
	}
}

// LogPos is a point in the log: a segment and a byte offset in it.
type LogPos struct {
	Seg uint64
	Off int64
}

// End returns the position just past the last appended record.
func (l *Log) End() LogPos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogPos{Seg: l.last().id, Off: l.w.size}
}

// Tail returns the query-shard t's records, in log order: untagged
// events routes accepts (minus those its query refused), events tagged
// t, and t's match and skip records. Events past end are left out
// (nil: none are); match and skip records never are. The buffered tail
// is flushed first so records appended in this process are visible.
func (l *Log) Tail(t Tag, routes func(*event.Event) bool, end *LogPos) (recs []Record, torn bool, err error) {
	l.mu.Lock()
	err = l.flushLocked()
	ids := make([]uint64, len(l.segs))
	for i, sg := range l.segs {
		ids[i] = sg.id
	}
	l.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	if end == nil {
		end = &LogPos{Seg: math.MaxUint64}
	}
	return readTail(l.dir, l.prefix, l.fp, ids, *end, t, routes)
}

// ReadLogTail reads query-shard t's records from the log in dir,
// events up to end only, without opening the log for append — a
// failover survivor reads a dead node's log this way.
func ReadLogTail(dir string, fp uint64, end LogPos, t Tag, routes func(*event.Event) bool) (recs []Record, torn bool, err error) {
	ids, err := segmentIDs(dir, "log")
	if err != nil {
		return nil, false, err
	}
	return readTail(dir, "log", fp, ids, end, t, routes)
}

func readTail(dir, prefix string, fp uint64, ids []uint64, end LogPos, t Tag, routes func(*event.Event) bool) (recs []Record, torn bool, err error) {
	// Records are filtered as they are decoded: a reader holds t's
	// candidates and its query's refused seqs, never the other queries'
	// records.
	refused := map[uint64]bool{}
	keep := func(r Record) {
		switch {
		case r.Kind == RecRefused:
			if r.Tag.FP == t.FP {
				refused[r.Seq] = true
			}
		case r.Kind == RecEvent:
			if routes != nil && routes(r.Event) {
				recs = append(recs, r)
			}
		case r.Tag == t:
			recs = append(recs, r)
		}
	}
	// Past end only match, skip and refusal records count.
	keepLate := func(r Record) {
		if r.Kind != RecEvent && r.Kind != RecTagged {
			keep(r)
		}
	}
	for _, id := range ids {
		data, rerr := os.ReadFile(segPath(dir, prefix, id))
		if os.IsNotExist(rerr) {
			continue
		}
		rest, herr := checkHeader(data, walMagic, fp)
		if rerr != nil || herr != nil {
			torn = true
			continue
		}
		cut := len(rest)
		if id > end.Seg {
			cut = 0
		} else if id == end.Seg {
			cut = min(max(int(end.Off-headerLen), 0), len(rest))
		}
		tn := decodeFrames(rest[:cut], keep)
		ltn := decodeFrames(rest[cut:], keepLate)
		torn = torn || tn || ltn
	}
	// Refused events drop in one pass over the candidates, once every
	// refusal is read.
	n := 0
	for _, r := range recs {
		switch {
		case r.Kind == RecEvent && refused[r.Seq]:
			continue
		case r.Kind == RecTagged:
			r.Kind = RecEvent
		}
		recs[n] = r
		n++
	}
	clear(recs[n:])
	return recs[:n], torn, nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.w.close()
	l.flushed.Store(l.appended)
	return err
}

// Abort closes the log's file WITHOUT flushing — the in-process
// equivalent of SIGKILL, for recovery tests. Later appends buffer and
// later flushes fail, as on a lost descriptor.
func (l *Log) Abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.abort()
}
