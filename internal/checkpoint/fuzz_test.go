package checkpoint

import (
	"testing"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// fuzzFP is the fingerprint fuzz inputs are decoded under; seed images
// are encoded with it so mutations start from accepted files.
const fuzzFP = 0x1234abcd5678ef90

// FuzzCheckpointDecode is the satellite fuzz target: arbitrary bytes fed
// to every on-disk decoder — snapshot, WAL, dead-letter — and, when a
// snapshot decodes, to engine.Restore. The contract is a clean error (or
// torn flag) on bad input; any panic or unbounded allocation is a bug,
// because upstream these paths run inside shard recovery where a panic
// would defeat the cold-start fallback.
func FuzzCheckpointDecode(f *testing.F) {
	m := nfa.MustCompile(query.Q1("2ms"))

	// Seeds: valid images of all three file kinds plus structured damage.
	en := engine.New(m, engine.DefaultCosts())
	s := gen.DS1(gen.DS1Config{Events: 120, Seed: 5, InterArrival: 30 * event.Microsecond})
	for _, e := range s {
		en.Process(e)
	}
	snap := EncodeShardState(&ShardState{
		Shard: 0, LastSeq: 120, LastTime: int64(30 * event.Microsecond * 120),
		Counters:     Counters{EventsIn: 120, Processed: 120, Matched: 3},
		StrategyName: "Hybrid", Strategy: []byte{9, 9},
		Engine: en.Snapshot(),
	}, fuzzFP)
	f.Add(snap)
	f.Add(append([]byte(nil), snap[:len(snap)/2]...))
	flip := append([]byte(nil), snap...)
	flip[len(flip)/3] ^= 0x20
	f.Add(flip)

	var enc Encoder
	wal := putHeader(nil, walMagic, fuzzFP)
	wal = appendFrame(wal, RecEvent, encodeEventRecord(&enc, s[0]))
	wal = appendFrame(wal, RecMatch, encodeMatchRecord(&enc, Tag{}, 7, "0,3,7"))
	wal = appendFrame(wal, RecSkip, encodeSkipRecord(&enc, Tag{}, 9))
	f.Add(wal)
	f.Add(append([]byte(nil), wal[:len(wal)-5]...))

	f.Add(encodeDeadLettersImage(&DeadLetterState{
		Total:   2,
		Letters: []DeadLetterRecord{{Shard: 1, Seq: 3, Type: "A", Reason: "r", Payload: "p"}},
	}))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := DecodeShardState(data, fuzzFP); err == nil {
			fresh := engine.New(m, engine.DefaultCosts())
			// Restore may reject the decoded state; it must not panic, and
			// on rejection it must leave the engine cold-usable.
			if rerr := fresh.Restore(st.Engine); rerr != nil && fresh.LiveCount() != 0 {
				t.Fatalf("rejected Restore left %d live PMs", fresh.LiveCount())
			}
			fresh.Process(event.New("A", event.Millisecond, map[string]event.Value{
				"ID": event.Int(1), "V": event.Int(2),
			}))
		}
		if recs, torn, err := decodeWAL(data, fuzzFP); err == nil && torn && recs == nil {
			_ = recs // torn with zero records is legal (header-only file)
		}
		if st, err := DecodeDeadLetters(data); err == nil && st == nil {
			t.Fatal("DecodeDeadLetters returned nil state without error")
		}
	})
}
