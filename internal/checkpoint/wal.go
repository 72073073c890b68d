package checkpoint

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"os"
	"time"

	"cepshed/internal/event"
)

// WAL file layout: the same magic/version/fingerprint header as
// snapshots (magic "CEPWAL01"), then a sequence of records:
//
//	kind u8  payloadLen u32 LE  crc u32 LE  payload
//
// where crc is CRC32-IEEE over the kind byte followed by the payload.
// The reader tolerates a truncated or corrupt tail — it returns every
// record up to the first anomaly and flags the file as torn — because a
// crash mid-append is the WAL's normal ending, not an error.

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
	f   *os.File
	bw  *bufio.Writer
	enc Encoder

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
// append. An existing file is repaired first: everything past the last
// valid frame — the torn remnant of a crash mid-write — is truncated,
// because the reader stops at the first bad frame, so records appended
// after a torn point would be unreachable on the next recovery (a
// second crash would then lose post-boot events and re-deliver matches
// whose M records sit beyond the tear). A file whose header does not
// match this process (foreign magic, version, or fingerprint) is
// rotated aside to .corrupt rather than appended to, for the same
// reason.
func openWAL(path string, fp uint64, fsync bool) (*walWriter, error) {
	if err := repairWAL(path, fp); err != nil {
		return nil, err
	}
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
		// the first record flush leaves an empty or torn header that
		// repairWAL handles like any other torn tail.
		if err := w.bw.Flush(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// repairWAL makes an existing WAL file safe to append to: torn tails
// truncate to the last valid frame (losing only bytes no reader could
// use), alien headers rotate the whole file aside. Missing or empty
// files need no repair.
func repairWAL(path string, fp uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if len(data) == 0 {
		return nil
	}
	valid, headerOK := validWALPrefix(data, fp)
	if !headerOK {
		return os.Rename(path, path+".corrupt")
	}
	if valid < int64(len(data)) {
		return os.Truncate(path, valid)
	}
	return nil
}

// validWALPrefix returns the byte length of the header plus every valid
// frame (the prefix DecodeWAL would read), and whether the header
// itself was acceptable.
func validWALPrefix(data []byte, fp uint64) (int64, bool) {
	rest, err := checkHeader(data, walMagic, fp)
	if err != nil {
		return 0, false
	}
	n := int64(headerLen)
	for len(rest) >= 9 {
		plen := binary.LittleEndian.Uint32(rest[1:5])
		crc := binary.LittleEndian.Uint32(rest[5:9])
		if plen > maxWALRecord || uint64(plen) > uint64(len(rest)-9) {
			break
		}
		payload := rest[9 : 9+plen]
		if frameCRC(rest[:1], payload) != crc {
			break
		}
		if _, ok := decodeRecord(rest[0], payload); !ok {
			break
		}
		n += int64(9 + plen)
		rest = rest[9+plen:]
	}
	return n, true
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

// readWALFile decodes a WAL file, handing each record to fn. A missing
// file yields (false, nil); a bad header yields an error; a truncated or
// corrupt record tail stops the scan cleanly with torn=true.
func readWALFile(path string, fp uint64, fn func(Record)) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	rest, err := checkHeader(data, walMagic, fp)
	if err != nil {
		return false, err
	}
	return decodeFrames(rest, fn), nil
}

// DecodeWAL parses a WAL image. Exposed for the fuzz target.
func DecodeWAL(data []byte, fp uint64) (recs []Record, torn bool, err error) {
	rest, err := checkHeader(data, walMagic, fp)
	if err != nil {
		return nil, false, err
	}
	torn = decodeFrames(rest, func(r Record) { recs = append(recs, r) })
	return recs, torn, nil
}

// decodeFrames parses the records of a WAL image past its header and
// hands each to fn as it is decoded, so a reader keeps only the records
// it wants; it stops cleanly (torn) at the first bad frame.
func decodeFrames(rest []byte, fn func(Record)) (torn bool) {
	for len(rest) > 0 {
		if len(rest) < 9 {
			return true
		}
		kind := rest[0]
		plen := binary.LittleEndian.Uint32(rest[1:5])
		crc := binary.LittleEndian.Uint32(rest[5:9])
		if plen > maxWALRecord || uint64(plen) > uint64(len(rest)-9) {
			return true
		}
		payload := rest[9 : 9+plen]
		if frameCRC(rest[:1], payload) != crc {
			return true
		}
		rec, ok := decodeRecord(kind, payload)
		if !ok {
			return true
		}
		fn(rec)
		rest = rest[9+plen:]
	}
	return false
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
