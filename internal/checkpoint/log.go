package checkpoint

import (
	"errors"
	"fmt"
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
// (tail) from its snapshot's seq floor; boot recovery filters what
// OpenLog's one pass over the files decoded instead of re-reading them.
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
	// boot is what the open scan decoded, kept until EndBoot so that no
	// boot reader re-reads a file; the log then ended at openOff in
	// segment openSeg.
	boot    *bootRecords
	openSeg uint64
	openOff int64

	flushed atomic.Uint64 // LSN every record up to which is durable
	routed  atomic.Uint64 // 1 + highest seq with its queue places claimed; 0: none
}

// bootRecords is the log as the open scan decoded it: events and
// refusals in log order, and each query-shard's marks (match and skip
// records) under its tag, for its boot reader to share. torn reports a
// tear in a segment older than the newest, whose tear the open cuts off.
type bootRecords struct {
	events []Record
	marks  map[Tag][]Record
	torn   bool
}

// chunks gathers records in chunks that double up to chunkLen records,
// so a long scan never copies what it has gathered the way a growing
// slice does, and a short list stays small; flat joins them once, in
// order.
type chunks [][]Record

const chunkLen = 1024

func (c *chunks) add(r Record) {
	n := len(*c)
	if n == 0 || len((*c)[n-1]) == cap((*c)[n-1]) {
		size := 16
		if n > 0 {
			size = min(2*cap((*c)[n-1]), chunkLen)
		}
		*c = append(*c, make([]Record, 0, size))
		n++
	}
	(*c)[n-1] = append((*c)[n-1], r)
}

func (c chunks) flat() []Record {
	n := 0
	for _, ch := range c {
		n += len(ch)
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for _, ch := range c {
		out = append(out, ch...)
	}
	return out
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

// OpenLog opens (creating as needed) the log in dir. One pass reads
// every segment: it learns each one's highest seq, keeps the records
// for boot recovery (LoadBoot; EndBoot drops them), rotates a segment
// with a foreign header aside to .corrupt, and cuts the newest one's
// torn tail before reopening it for append. A read error fails the open.
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
	boot := &bootRecords{marks: map[Tag][]Record{}}
	var events chunks
	marks := map[Tag]*chunks{}
	var valid int64 // the newest segment's valid prefix, and whether a tear follows it
	var torn bool
	for _, id := range ids {
		sg := segment{id: id}
		v, tn, err := readSegment(l.path(id), fp, 0, func(r Record) {
			switch r.Kind {
			case RecMatch, RecSkip:
				m := marks[r.Tag]
				if m == nil {
					m = &chunks{}
					marks[r.Tag] = m
				}
				m.add(r)
				return
			case RecEvent, RecTagged:
				sg.note(r.Seq)
			}
			events.add(r)
		})
		if errors.Is(err, ErrCorrupt) {
			if err := os.Rename(l.path(id), l.path(id)+".corrupt"); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		boot.torn = boot.torn || torn
		valid, torn = v, tn
		l.segs = append(l.segs, sg)
	}
	boot.events = events.flat()
	for t, m := range marks {
		boot.marks[t] = m.flat()
	}
	l.boot = boot
	if len(l.segs) == 0 {
		l.segs = append(l.segs, segment{id: 1})
	}
	// Past the newest segment's last valid frame lies the remnant of a
	// crash mid-write. Readers stop there, so records appended after it
	// would be unreachable on the next recovery: it is cut off first.
	if torn {
		if err := os.Truncate(l.path(l.last().id), valid); err != nil {
			return nil, err
		}
	}
	w, err := openWAL(l.path(l.last().id), fp, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	l.w = w
	l.openSeg, l.openOff = l.last().id, w.size
	return l, nil
}

// Config returns the log's resolved config: the flush and segment
// settings every store on the log shares (Log.Store).
func (l *Log) Config() Config { return l.cfg }

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

// EndBoot drops what the open scan decoded, once no boot recovery can
// still need it (a boot retry after a replay panic does).
func (l *Log) EndBoot() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.boot = nil
}

// tail returns the query-shard t's records: the untagged events routes
// accepts (minus those its query refused) and the events tagged t, in
// log order, and t's marks. It flushes first, so records appended in
// this process are visible. Until EndBoot it filters the open scan's
// records and reads the files only past the open end, where a boot read
// takes marks and refusals (a boot retry needs its poison's Q record)
// but no event: those were offered to this incarnation's queues.
func (l *Log) tail(t Tag, routes func(*event.Event) bool, boot bool) (events, marks []Record, torn bool, err error) {
	l.mu.Lock()
	err = l.flushLocked()
	set, seg, off := l.boot, l.openSeg, l.openOff
	grown := l.last().id != seg || l.w.size != off // anything appended since the open
	l.mu.Unlock()
	if err != nil {
		return nil, nil, false, err
	}
	f := &tailFilter{t: t, routes: routes, refused: map[uint64]bool{}}
	keep := f.keep
	switch {
	case set != nil:
		for _, r := range set.events {
			f.keep(r)
		}
		m := set.marks[t]
		f.marks, torn = m[:len(m):len(m)], set.torn // a late mark appends to a copy
		if boot {
			keep = f.keepLate
		}
	case boot:
		return nil, nil, false, errors.New("checkpoint: boot read after boot recovery ended")
	default:
		seg, off = 0, 0
	}
	if set == nil || grown {
		var tn bool
		tn, err = readLog(l.dir, l.prefix, l.fp, seg, off, keep)
		torn = torn || tn
	}
	events, marks = f.records()
	return events, marks, torn, err
}

// readLog streams the segments in dir to fn from byte offset off of
// segment seg on; a segment with a foreign header counts as torn.
func readLog(dir, prefix string, fp uint64, seg uint64, off int64, fn func(Record)) (torn bool, err error) {
	ids, err := segmentIDs(dir, prefix)
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		if id < seg {
			continue
		} else if id > seg {
			off = 0
		}
		_, tn, err := readSegment(segPath(dir, prefix, id), fp, off, fn)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return torn, err
		}
		torn = torn || tn || err != nil
	}
	return torn, nil
}

// ReadLog streams every record of the log in dir, oldest segment first,
// to fn without opening the log for append.
func ReadLog(dir string, fp uint64, fn func(Record)) (torn bool, err error) {
	return readLog(dir, "log", fp, 0, 0, fn)
}

// ReadLogTail reads query-shard t's events and marks (see tail) from
// the log in dir — a failover survivor reads a dead node's log this way.
func ReadLogTail(dir string, fp uint64, t Tag, routes func(*event.Event) bool) (events, marks []Record, torn bool, err error) {
	f := &tailFilter{t: t, routes: routes, refused: map[uint64]bool{}}
	torn, err = ReadLog(dir, fp, f.keep)
	events, marks = f.records()
	return events, marks, torn, err
}

// tailFilter collects one query-shard's events and marks, and its
// query's refused seqs, as a reader hands records over.
type tailFilter struct {
	t             Tag
	routes        func(*event.Event) bool
	events, marks []Record
	refused       map[uint64]bool
}

func (f *tailFilter) keep(r Record) {
	switch {
	case r.Kind == RecRefused:
		if r.Tag.FP == f.t.FP {
			f.refused[r.Seq] = true
		}
	case r.Kind == RecEvent:
		if f.routes != nil && f.routes(r.Event) {
			f.events = append(f.events, r)
		}
	case r.Tag != f.t: // another query-shard's
	case r.Kind == RecTagged:
		f.events = append(f.events, r)
	default:
		f.marks = append(f.marks, r)
	}
}

// keepLate is keep past the open end for a boot read.
func (f *tailFilter) keepLate(r Record) {
	if r.Kind != RecEvent && r.Kind != RecTagged {
		f.keep(r)
	}
}

// records drops the refused untagged events, once every refusal is
// read, and returns the rest (tagged ones as RecEvent) and the marks.
func (f *tailFilter) records() (events, marks []Record) {
	events = f.events[:0]
	for _, r := range f.events {
		switch {
		case r.Kind == RecTagged:
			r.Kind = RecEvent
		case f.refused[r.Seq]:
			continue
		}
		events = append(events, r)
	}
	clear(f.events[len(events):])
	return events, f.marks
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
