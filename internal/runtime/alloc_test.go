package runtime

import (
	"testing"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// TestProcessZeroAlloc pins the per-(event, query) cost of shard.process
// at zero heap allocations for an event that opens no partial match:
// the engine result lives in the shard, not in a local whose address
// the strategy's Observe would move to the heap once per pair.
func TestProcessZeroAlloc(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := newShard(0, m, Config{QueueLen: 1}.withDefaults())
	s.rt = &Runtime{}
	// B with no open A: the engine matches nothing and creates nothing,
	// so every allocation left would be the serving path's own.
	e := event.New("B", event.Millisecond, map[string]event.Value{"ID": event.Int(1), "V": event.Int(2)})
	it := item{e: e, enq: time.Now()}
	s.process(it) // warm the histogram and the engine's scratch
	if n := testing.AllocsPerRun(200, func() { s.process(it) }); n != 0 {
		t.Fatalf("shard.process allocates %.1f times per event, want 0", n)
	}
}
