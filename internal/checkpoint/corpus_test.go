package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// TestRegenFuzzCorpus rewrites the checked-in seed corpus for
// FuzzCheckpointDecode when CEPSHED_REGEN_CORPUS=1. Run it after any
// format change (and bump FormatVersion) so the corpus stays aligned
// with the encoders:
//
//	CEPSHED_REGEN_CORPUS=1 go test ./internal/checkpoint -run RegenFuzzCorpus
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("CEPSHED_REGEN_CORPUS") != "1" {
		t.Skip("set CEPSHED_REGEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	en := engine.New(nfa.MustCompile(query.Q1("2ms")), engine.DefaultCosts())
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

	var enc Encoder
	wal := putHeader(nil, walMagic, fuzzFP)
	wal = appendFrame(wal, RecEvent, encodeEventRecord(&enc, s[0]))
	wal = appendFrame(wal, RecMatch, encodeMatchRecord(&enc, Tag{}, 7, "0,3,7"))
	wal = appendFrame(wal, RecSkip, encodeSkipRecord(&enc, Tag{}, 9))

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/3] ^= 0x20
	tornWAL := append([]byte(nil), wal[:len(wal)-5]...)

	seeds := map[string][]byte{
		"snapshot-valid":    snap,
		"snapshot-trunc":    snap[:len(snap)/2],
		"snapshot-bitflip":  flipped,
		"wal-valid":         wal,
		"wal-torn":          tornWAL,
		"dlq-valid":         encodeDeadLettersImage(&DeadLetterState{Total: 2, Letters: []DeadLetterRecord{{Shard: 1, Seq: 3, Type: "A", Reason: "r", Payload: "p"}}}),
		"magic-only":        []byte(snapMagic),
		"wal-header-only":   putHeader(nil, walMagic, fuzzFP),
		"snap-header-only":  putHeader(nil, snapMagic, fuzzFP),
		"zero-length":       {},
		"wal-garbage-frame": appendFrame(putHeader(nil, walMagic, fuzzFP), 'Z', []byte("junk")),
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
