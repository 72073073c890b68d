package checkpoint

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"time"

	"cepshed/internal/event"
)

// WAL file layout: the same magic/version/fingerprint header as
// snapshots (magic "CEPWAL01"), then a sequence of records:
//
//	kind u8  payloadLen u32 LE  crc u32 LE  payload
//
// where crc is CRC32-IEEE over the kind byte followed by the payload.
// The reader (readSegment) tolerates a truncated or corrupt tail — it
// returns every record up to the first anomaly and flags the file as
// torn — because a crash mid-append is the WAL's normal ending, not an
// error.

// WAL record kinds. M, Q and T records carry a Tag naming the
// (query, shard) they belong to; E records name none — recovery routes
// them the way the live fan-out did (see Log).
const (
	// RecEvent is one accepted input event, appended BEFORE any engine
	// sees it so replay covers events whose processing crashed.
	RecEvent byte = 'E'
	// RecTagged is an input event with a single target query-shard (a
	// cluster arrival offered to one slot); it replays there only.
	RecTagged byte = 'T'
	// RecMatch is the key of a delivered match plus the seq of the event
	// that completed it. Logged-and-flushed before delivery; on replay the
	// key suppresses re-emission (exactly-once per process crash).
	RecMatch byte = 'M'
	// RecSkip marks a quarantined (poison) seq: replay must skip it or the
	// poison event would re-crash the shard on every recovery.
	RecSkip byte = 'Q'
	// RecRefused marks a seq one query refused at its door (ladder
	// rejection or recovery floor): replay must not route it there.
	RecRefused byte = 'R'
)

// Tag names the query-shard a record belongs to: FP identifies the
// query (its registry fingerprint, or the runtime fingerprint of a
// standalone runtime), Shard the slot.
type Tag struct {
	FP    uint64
	Shard int
}

// maxWALRecord bounds one record payload.
const maxWALRecord = 1 << 24

// Record is one decoded WAL record.
type Record struct {
	Kind  byte
	Seq   uint64       // event seq (RecEvent, RecTagged, RecSkip, RecRefused) or completing seq (RecMatch)
	Event *event.Event // RecEvent, RecTagged
	Key   string       // RecMatch only
	Tag   Tag          // RecTagged, RecMatch, RecSkip; RecRefused sets Tag.FP only
}

// walWriter appends records to an open WAL file through a buffer.
type walWriter struct {
	f  *os.File
	bw *bufio.Writer

	fsync bool
	// pending / pendingBytes / firstPendingNs describe the current flush
	// group: records buffered since the last flush, their framed size,
	// and when the first of them was appended. They feed the group-commit
	// policy in Log.policyLocked.
	pending        int
	pendingBytes   int
	firstPendingNs int64
	// size is the file's length once everything appended is flushed.
	size int64
}

// openWAL opens (creating and writing the header if empty) path for
// append. An existing file must already be repaired: openLog truncates
// the newest segment to its valid prefix before it reopens it.
func openWAL(path string, fp uint64, fsync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &walWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), fsync: fsync, size: info.Size()}
	if info.Size() == 0 {
		w.size = headerLen
		if _, err := w.bw.Write(putHeader(nil, walMagic, fp)); err != nil {
			f.Close()
			return nil, err
		}
		// The header reaches the OS now but is deliberately NOT fsynced:
		// no record is durable before its own flush's fsync, and that
		// fsync covers the whole file, header included. A crash before
		// the first record flush leaves an empty or torn header, which
		// the next open rotates aside like any foreign one.
		if err := w.bw.Flush(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// frameCRC is CRC32-IEEE over the kind byte (a one-byte slice of the
// frame, so nothing is copied) followed by the payload, computed with
// the package table so it allocates nothing.
func frameCRC(kind, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, crc32.IEEETable, kind), crc32.IEEETable, payload)
}

// appendFrame appends one framed record — kind, length, CRC, payload —
// to buf.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	at := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, frameCRC(buf[at:at+1], payload))
	return append(buf, payload...)
}

// append frames one record straight into the writer's free buffer
// space, so framing allocates nothing unless the record outgrows it.
// Data reaches the OS only at flush; a crash loses at most the buffered
// tail (the bounded-loss window documented in docs/DURABILITY.md).
func (w *walWriter) append(kind byte, payload []byte) error {
	frame := appendFrame(w.bw.AvailableBuffer(), kind, payload)
	if _, err := w.bw.Write(frame); err != nil {
		return err
	}
	if w.pending == 0 {
		w.firstPendingNs = time.Now().UnixNano()
	}
	w.pending++
	w.pendingBytes += len(frame)
	w.size += int64(len(frame))
	return nil
}

func (w *walWriter) flush() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.pending = 0
	w.pendingBytes = 0
	if w.fsync {
		return w.f.Sync()
	}
	return nil
}

// close flushes and closes the file.
func (w *walWriter) close() error {
	ferr := w.flush()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// abort closes WITHOUT flushing, discarding the buffered tail — the
// in-process equivalent of SIGKILL, used by Runtime.Kill for recovery
// tests.
func (w *walWriter) abort() {
	w.f.Close()
}

// readSegment is the log's one frame reader: it streams the segment at
// path from byte offset from (0, or a frame boundary) and hands each
// record to fn as it is decoded. It returns the valid prefix (header
// and frames up to the first bad one) and torn when a bad frame ended
// the scan, a crash's normal ending. A missing file reads as empty; a
// short or foreign header is an error wrapping ErrCorrupt.
func readSegment(path string, fp uint64, from int64, fn func(Record)) (valid int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	return readFrames(f, info.Size(), fp, from, fn)
}

// readFrames is readSegment over the first size bytes of an image; a
// frame claiming more bytes than remain is torn before any allocation.
func readFrames(r io.ReaderAt, size int64, fp uint64, from int64, fn func(Record)) (valid int64, torn bool, err error) {
	var head [headerLen]byte
	if n, err := r.ReadAt(head[:], 0); err != nil && err != io.EOF {
		return 0, false, err
	} else if _, err := checkHeader(head[:n], walMagic, fp); err != nil {
		return 0, false, err
	}
	valid = max(from, headerLen)
	br := bufio.NewReaderSize(io.NewSectionReader(r, valid, size-valid), 1<<16)
	var frame []byte
	for ; valid < size; valid += int64(len(frame)) {
		if size-valid < 9 {
			return valid, true, nil
		}
		frame = slices.Grow(frame[:0], 9)[:9]
		if _, err = io.ReadFull(br, frame); err != nil {
			break
		}
		plen := binary.LittleEndian.Uint32(frame[1:5])
		if plen > maxWALRecord || int64(plen) > size-valid-9 {
			return valid, true, nil
		}
		frame = slices.Grow(frame, int(plen))[:9+plen]
		if _, err = io.ReadFull(br, frame[9:]); err != nil {
			break
		}
		if frameCRC(frame[:1], frame[9:]) != binary.LittleEndian.Uint32(frame[5:9]) {
			return valid, true, nil
		}
		rec, ok := decodeRecord(frame[0], frame[9:])
		if !ok {
			return valid, true, nil
		}
		fn(rec)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return valid, true, nil // the file shrank under the read
	}
	return valid, false, err
}

func decodeRecord(kind byte, payload []byte) (Record, bool) {
	d := NewDecoder(payload)
	rec := Record{Kind: kind}
	switch kind {
	case RecEvent, RecTagged:
		if kind == RecTagged {
			rec.Tag = decodeTag(d)
		}
		rec.Event = decodeEvent(d)
		if d.Err() != nil {
			return rec, false
		}
		rec.Seq = rec.Event.Seq
	case RecMatch:
		rec.Tag = decodeTag(d)
		rec.Seq = d.Uvarint()
		rec.Key = d.Str()
	case RecSkip:
		rec.Tag = decodeTag(d)
		rec.Seq = d.Uvarint()
	case RecRefused:
		rec.Tag.FP = d.Uvarint()
		rec.Seq = d.Uvarint()
	default:
		return rec, false
	}
	return rec, d.Err() == nil
}

func decodeTag(d *Decoder) Tag { return Tag{FP: d.Uvarint(), Shard: int(d.Varint())} }

func encodeTag(enc *Encoder, t Tag) {
	enc.Uvarint(t.FP)
	enc.Varint(int64(t.Shard))
}

// encodeEventRecord renders a RecEvent payload into enc (reset first).
func encodeEventRecord(enc *Encoder, e *event.Event) []byte {
	enc.Reset()
	encodeEvent(enc, e)
	return enc.Bytes()
}

func encodeTaggedRecord(enc *Encoder, t Tag, e *event.Event) []byte {
	enc.Reset()
	encodeTag(enc, t)
	encodeEvent(enc, e)
	return enc.Bytes()
}

func encodeMatchRecord(enc *Encoder, t Tag, seq uint64, key string) []byte {
	enc.Reset()
	encodeTag(enc, t)
	enc.Uvarint(seq)
	enc.Str(key)
	return enc.Bytes()
}

func encodeSkipRecord(enc *Encoder, t Tag, seq uint64) []byte {
	enc.Reset()
	encodeTag(enc, t)
	enc.Uvarint(seq)
	return enc.Bytes()
}

func encodeRefusedRecord(enc *Encoder, fp, seq uint64) []byte {
	enc.Reset()
	enc.Uvarint(fp)
	enc.Uvarint(seq)
	return enc.Bytes()
}
