package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Handoff frame: the unit shipped between nodes when a shard migrates
// (planned handoff) or fails over. Layout mirrors the snapshot file —
//
//	magic "CEPHOF01" (8)  version u16 LE  fingerprint u64 LE
//	bodyLen u32 LE  bodyCRC u32 LE (CRC32-IEEE of the body)
//	body
//
// — so the importing node gets the same corruption guarantees over the
// network that recovery gets from disk: a flipped byte is a rejected
// frame, never a panic or a silently wrong engine state. The
// fingerprint is the runtime fingerprint (query string + shard count +
// negation mode), which both nodes derive independently from the same
// registered query; a frame from a different query or sharding cannot
// be imported. The body carries the routing identity (tenant/query and
// shard slot), the full serialized shard state, and the WAL tail
// records not yet reflected in that state — present on the failover
// path, empty on a planned handoff where the source drained first.

const handoffMagic = "CEPHOF01"

// Handoff is one shard's migration payload.
type Handoff struct {
	Tenant string
	Query  string // query name within the tenant
	Shard  int    // shard slot index
	State  *ShardState
	// Tail is the WAL records past the snapshot (failover only): events
	// to replay, match keys to suppress, poison seqs to skip.
	Tail []Record
}

// EncodeHandoff renders a complete handoff frame. fp is the runtime
// fingerprint shared by exporter and importer.
func EncodeHandoff(h *Handoff, fp uint64) []byte {
	var e Encoder
	e.Str(h.Tenant)
	e.Str(h.Query)
	e.Varint(int64(h.Shard))
	encodeShardBody(&e, h.State)
	e.Uvarint(uint64(len(h.Tail)))
	var rec Encoder
	for i := range h.Tail {
		r := &h.Tail[i]
		e.buf = append(e.buf, r.Kind)
		switch r.Kind {
		case RecEvent:
			e.Blob(encodeEventRecord(&rec, r.Event))
		case RecMatch:
			e.Blob(encodeMatchRecord(&rec, r.Tag, r.Seq, r.Key))
		case RecSkip:
			e.Blob(encodeSkipRecord(&rec, r.Tag, r.Seq))
		}
	}
	body := e.Bytes()
	out := make([]byte, 0, frameLen+len(body))
	out = putHeader(out, handoffMagic, fp)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// DecodeHandoff parses and validates a handoff frame. Like
// DecodeShardState, the returned engine state still needs
// engine.Restore's structural validation on import.
func DecodeHandoff(data []byte, fp uint64) (*Handoff, error) {
	rest, err := checkHeader(data, handoffMagic, fp)
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
		return nil, fmt.Errorf("%w: body length %d past end", ErrCorrupt, bodyLen)
	}
	body = body[:bodyLen]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: handoff body CRC mismatch", ErrCorrupt)
	}
	d := NewDecoder(body)
	h := &Handoff{}
	h.Tenant = d.Str()
	h.Query = d.Str()
	h.Shard = int(d.Varint())
	h.State = decodeShardBody(d)
	ntail := d.Count(2) // kind byte + length prefix minimum
	for i := 0; i < ntail && d.Err() == nil; i++ {
		if d.Remaining() < 1 {
			d.fail("short tail record kind")
			break
		}
		kind := d.b[0]
		d.b = d.b[1:]
		payload := d.Blob()
		if d.Err() != nil {
			break
		}
		rec, ok := decodeRecord(kind, payload)
		if !ok {
			d.fail("bad tail record")
			break
		}
		h.Tail = append(h.Tail, rec)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return h, nil
}
