package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"cepshed/internal/engine"
	"cepshed/internal/event"
)

// Snapshot file layout:
//
//	magic "CEPSNAP1" (8)  version u16 LE  fingerprint u64 LE
//	bodyLen u32 LE  bodyCRC u32 LE (CRC32-IEEE of the body)
//	body
//
// The fingerprint binds the file to one (query, shard count, negation
// mode) configuration: a snapshot taken under a different query or
// sharding must not be restored, because partial matches and WAL seqs
// would be meaningless. Any incompatible change to the body encoding
// bumps FormatVersion; decoders reject other versions, which upstream
// turns into a counted cold start (docs/DURABILITY.md).

const (
	snapMagic = "CEPSNAP1"
	walMagic  = "CEPWAL01"
	dlqMagic  = "CEPDLQ01"

	// FormatVersion is the on-disk format version shared by snapshot, WAL
	// and dead-letter files. Bump on any incompatible encoding change.
	// v2: ShardState gained HasSeq (LastSeq alone cannot express "no
	// events yet" — sequence numbers start at 0).
	// v3: one input log per stream — M and Q payloads start with their
	// (query, shard) tag, T and R records are new, and the per-shard
	// shard-NNN.wal files are gone (Log.Store removes leftovers).
	FormatVersion = 3

	headerLen = 8 + 2 + 8         // magic + version + fingerprint
	frameLen  = headerLen + 4 + 4 // + bodyLen + bodyCRC

	// maxSnapshotBody bounds a snapshot body (and any WAL record): a
	// declared length beyond this is treated as corruption, not a reason
	// to allocate.
	maxSnapshotBody = 1 << 28
)

// Fingerprint hashes configuration strings into the file-header
// fingerprint (FNV-1a over the parts, NUL-separated).
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Counters are the shard's externally visible monotone counters frozen
// at snapshot time, restored on boot so /stats and /metrics stay
// monotone across a restart.
type Counters struct {
	EventsIn    uint64
	EventsShed  uint64
	Processed   uint64
	Matched     uint64
	Restarts    uint64
	Quarantined uint64
	// BaseCreated/BaseDropped are the worker-local offsets added to the
	// engine's CreatedPMs/DroppedPMs; the engine's own values live inside
	// Engine.Stats.
	BaseCreated uint64
	BaseDropped uint64
}

// ShardState is everything one shard persists per snapshot.
type ShardState struct {
	Shard   int
	LastSeq uint64 // seq of the last event reflected in Engine
	// HasSeq reports that LastSeq/LastTime are meaningful: at least one
	// event reached the shard before this snapshot. Seq numbering starts
	// at 0, so LastSeq == 0 alone is ambiguous between "first event" and
	// "no events"; replay must not treat an event-free snapshot as a
	// floor that filters seq 0.
	HasSeq   bool
	LastTime int64 // its virtual time
	TakenNs  int64 // wall clock (UnixNano) at snapshot time
	Counters Counters
	// StrategyName + Strategy carry the shedding strategy's opaque state
	// (shed.DurableStrategy); restored only when the running strategy has
	// the same name and accepts the blob.
	StrategyName string
	Strategy     []byte
	Engine       *engine.EngineState
}

func putHeader(buf []byte, magic string, fp uint64) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, fp)
	return buf
}

// checkHeader validates magic/version/fingerprint and returns the rest.
func checkHeader(data []byte, magic string, fp uint64) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, FormatVersion)
	}
	if got := binary.LittleEndian.Uint64(data[10:18]); got != fp {
		return nil, fmt.Errorf("%w: fingerprint mismatch (file %x, config %x)", ErrCorrupt, got, fp)
	}
	return data[headerLen:], nil
}

// EncodeShardState renders a complete snapshot file image.
func EncodeShardState(st *ShardState, fp uint64) []byte {
	var e Encoder
	encodeShardBody(&e, st)
	body := e.Bytes()
	out := make([]byte, 0, frameLen+len(body))
	out = putHeader(out, snapMagic, fp)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// DecodeShardState parses and validates a snapshot file image. The
// returned state still needs engine.Restore's structural validation.
func DecodeShardState(data []byte, fp uint64) (*ShardState, error) {
	rest, err := checkHeader(data, snapMagic, fp)
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
		return nil, fmt.Errorf("%w: snapshot body CRC mismatch", ErrCorrupt)
	}
	d := NewDecoder(body)
	st := decodeShardBody(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return st, nil
}

func encodeShardBody(e *Encoder, st *ShardState) {
	e.Varint(int64(st.Shard))
	e.Uvarint(st.LastSeq)
	e.Bool(st.HasSeq)
	e.Varint(st.LastTime)
	e.Varint(st.TakenNs)
	c := &st.Counters
	e.Uvarint(c.EventsIn)
	e.Uvarint(c.EventsShed)
	e.Uvarint(c.Processed)
	e.Uvarint(0) // a retired counter's slot: written as 0, ignored on read
	e.Uvarint(c.Matched)
	e.Uvarint(c.Restarts)
	e.Uvarint(c.Quarantined)
	e.Uvarint(c.BaseCreated)
	e.Uvarint(c.BaseDropped)
	e.Str(st.StrategyName)
	e.Blob(st.Strategy)
	encodeEngineState(e, st.Engine)
}

func decodeShardBody(d *Decoder) *ShardState {
	st := &ShardState{}
	st.Shard = int(d.Varint())
	st.LastSeq = d.Uvarint()
	st.HasSeq = d.Bool()
	st.LastTime = d.Varint()
	st.TakenNs = d.Varint()
	c := &st.Counters
	c.EventsIn = d.Uvarint()
	c.EventsShed = d.Uvarint()
	c.Processed = d.Uvarint()
	d.Uvarint() // the retired counter's slot
	c.Matched = d.Uvarint()
	c.Restarts = d.Uvarint()
	c.Quarantined = d.Uvarint()
	c.BaseCreated = d.Uvarint()
	c.BaseDropped = d.Uvarint()
	st.StrategyName = d.Str()
	st.Strategy = d.Blob()
	st.Engine = decodeEngineState(d)
	return st
}

func encodeEngineState(e *Encoder, st *engine.EngineState) {
	e.Bool(st.DeferredNegation)
	e.Uvarint(st.Stats.Events)
	e.Uvarint(st.Stats.CreatedPMs)
	e.Uvarint(st.Stats.ExpiredPMs)
	e.Uvarint(st.Stats.KilledByGuard)
	e.Uvarint(st.Stats.DroppedPMs)
	e.Uvarint(st.Stats.Matches)
	e.Uvarint(st.Stats.PredEvals)
	e.Uvarint(st.NextID)
	e.Uvarint(uint64(len(st.Events)))
	for _, ev := range st.Events {
		encodeEvent(e, ev)
	}
	e.Uvarint(uint64(len(st.PMs)))
	for i := range st.PMs {
		p := &st.PMs[i]
		e.Uvarint(p.ID)
		e.Uvarint(p.ParentID)
		e.Varint(int64(p.State))
		e.Varint(int64(p.StartTime))
		e.Uvarint(p.StartSeq)
		e.Varint(int64(p.Class))
		e.Varint(int64(p.Slice))
		e.Varint(int64(p.WitnessGuard))
		e.Uvarint(uint64(len(p.Singles)))
		for _, ei := range p.Singles {
			e.Varint(int64(ei))
		}
		e.Uvarint(uint64(len(p.Kleene)))
		for _, reps := range p.Kleene {
			e.Uvarint(uint64(len(reps)))
			for _, ei := range reps {
				e.Varint(int64(ei))
			}
		}
	}
}

func decodeEngineState(d *Decoder) *engine.EngineState {
	st := &engine.EngineState{}
	st.DeferredNegation = d.Bool()
	st.Stats.Events = d.Uvarint()
	st.Stats.CreatedPMs = d.Uvarint()
	st.Stats.ExpiredPMs = d.Uvarint()
	st.Stats.KilledByGuard = d.Uvarint()
	st.Stats.DroppedPMs = d.Uvarint()
	st.Stats.Matches = d.Uvarint()
	st.Stats.PredEvals = d.Uvarint()
	st.NextID = d.Uvarint()
	nev := d.Count(2) // an event encodes to >= 2 bytes
	for i := 0; i < nev && d.Err() == nil; i++ {
		st.Events = append(st.Events, decodeEvent(d))
	}
	npm := d.Count(8)
	for i := 0; i < npm && d.Err() == nil; i++ {
		var p engine.PMState
		p.ID = d.Uvarint()
		p.ParentID = d.Uvarint()
		p.State = int(d.Varint())
		p.StartTime = event.Time(d.Varint())
		p.StartSeq = d.Uvarint()
		p.Class = int(d.Varint())
		p.Slice = int(d.Varint())
		p.WitnessGuard = int(d.Varint())
		ns := d.Count(1)
		p.Singles = make([]int32, 0, ns)
		for j := 0; j < ns && d.Err() == nil; j++ {
			p.Singles = append(p.Singles, int32(d.Varint()))
		}
		nk := d.Count(1)
		p.Kleene = make([][]int32, 0, nk)
		for j := 0; j < nk && d.Err() == nil; j++ {
			nr := d.Count(1)
			var reps []int32
			for r := 0; r < nr && d.Err() == nil; r++ {
				reps = append(reps, int32(d.Varint()))
			}
			p.Kleene = append(p.Kleene, reps)
		}
		st.PMs = append(st.PMs, p)
	}
	return st
}

// encodeEvent writes one event: type, zigzag time, seq, attrs. Attribute
// iteration order is map order — nondeterministic but irrelevant, since
// checksums are computed over the final bytes.
func encodeEvent(e *Encoder, ev *event.Event) {
	e.Str(ev.Type)
	e.Varint(int64(ev.Time))
	e.Uvarint(ev.Seq)
	e.Uvarint(uint64(len(ev.Attrs)))
	for name, v := range ev.Attrs {
		e.Str(name)
		e.buf = append(e.buf, byte(v.Kind))
		switch v.Kind {
		case event.KindInt:
			e.Varint(v.I)
		case event.KindFloat:
			e.F64(v.F)
		case event.KindString:
			e.Str(v.S)
		}
	}
}

func decodeEvent(d *Decoder) *event.Event {
	typ := d.Str()
	t := event.Time(d.Varint())
	seq := d.Uvarint()
	na := d.Count(2) // name prefix + kind byte minimum
	attrs := make(map[string]event.Value, na)
	for i := 0; i < na && d.Err() == nil; i++ {
		name := d.Str()
		if d.Remaining() < 1 {
			d.fail("short attr kind")
			break
		}
		kind := event.Kind(d.b[0])
		d.b = d.b[1:]
		var v event.Value
		switch kind {
		case event.KindNone:
		case event.KindInt:
			v = event.Int(d.Varint())
		case event.KindFloat:
			v = event.Float(d.F64())
		case event.KindString:
			v = event.Str(d.Str())
		default:
			d.fail("bad attr kind")
		}
		attrs[name] = v
	}
	ev := event.New(typ, t, attrs)
	ev.Seq = seq
	return ev
}
