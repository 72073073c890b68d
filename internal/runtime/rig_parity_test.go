package runtime_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// TestRigWritesWhatRegistryWrites keeps the runtime's durability test
// rig (Rig) from drifting from the production writer: one keyed DS1/Q1
// stream goes to the rig and to a durable one-query registry, both are
// killed at the same cut and reopened, and the rest of the stream
// follows. The two input logs must hold the same records — the events in
// the same order, the same match records with the same tags — and each
// side must deliver the reference match set exactly once.
func TestRigWritesWhatRegistryWrites(t *testing.T) {
	q1 := query.Q1("8ms")
	m := nfa.MustCompile(q1)
	// Only the types Q1 subscribes to: the registry logs no event without
	// a subscriber, and the rig offers every event to its one query.
	stream := func() []*event.Event {
		var out []*event.Event
		for _, e := range gen.DS1(gen.DS1Config{Events: 2000, Seed: 3, InterArrival: 15 * event.Microsecond}) {
			if e.Type != "D" {
				out = append(out, e)
			}
		}
		return out
	}
	want := sortedKeys(engine.Sequential(m, engine.DefaultCosts(), stream(), false))
	if len(want) == 0 {
		t.Fatal("reference run found no matches; test is vacuous")
	}
	// No snapshot falls due and no segment closes, so compaction deletes
	// nothing and each log keeps every record the two runs wrote.
	dur := checkpoint.Config{EveryEvents: 1 << 30, FlushEvery: 1}
	const shards = 2

	regDir := t.TempDir()
	regCol := newKeySet()
	spec := registry.QuerySpec{Tenant: "t", Name: "q1", Query: q1.Raw}
	open := func() (*registry.Registry, *registry.Instance) {
		g, err := registry.Open(registry.Config{
			Shards:     shards,
			StateDir:   regDir,
			Durability: &dur,
			Arbiter:    registry.ArbiterConfig{Disabled: true},
			OnMatches:  func(_ registry.QuerySpec, shard int, ms []engine.Match) { regCol.add(shard, ms) },
		})
		if err != nil {
			t.Fatal(err)
		}
		g.WaitRecovered()
		in, ok := g.Get(spec.Tenant, spec.Name)
		if !ok {
			if in, err = g.Add(spec); err != nil {
				t.Fatal(err)
			}
		}
		in.WaitReady()
		return g, in
	}
	s := stream()
	cut := len(s) / 2
	g, in := open()
	g.OfferBatch(s[:cut])
	waitDrained(t, in.Runtime(), cut)
	g.Kill()
	g, _ = open()
	g.OfferBatch(s[cut:])
	g.Close()

	// The registry salts the query's key hash and tags its records with
	// the query fingerprint; the rig's runtime gets the same salt.
	rigDir := t.TempDir()
	rigCol := newKeySet()
	rigDur := dur
	rigDur.Dir = rigDir
	cfg := runtime.Config{Shards: shards, KeySalt: in.Fingerprint(), OnMatches: rigCol.add}
	s = stream()
	rig := runtime.OpenRig(t, m, cfg, nil, &rigDur)
	rig.WaitRecovered()
	rig.OfferBatch(s[:cut])
	waitDrained(t, rig.Runtime, cut)
	rig.Kill()
	rig = runtime.OpenRig(t, m, cfg, nil, &rigDur)
	rig.WaitRecovered()
	rig.OfferBatch(s[cut:])
	rig.Close()

	for side, col := range map[string]*keySet{"rig": rigCol, "registry": regCol} {
		if d := col.dups(); len(d) != 0 {
			t.Errorf("%s: %d matches delivered more than once, e.g. %s", side, len(d), d[0])
		}
		if got := col.keys(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: delivered %d matches, want the %d of the reference", side, len(got), len(want))
		}
	}
	rigLog, regLog := logRecords(t, rigDir), logRecords(t, regDir)
	if len(rigLog["E"]) != len(s) {
		t.Fatalf("the rig logged %d events, want the %d offered", len(rigLog["E"]), len(s))
	}
	if !reflect.DeepEqual(rigLog, regLog) {
		count := func(l map[string][]string) map[string]int {
			n := map[string]int{}
			for kind, seqs := range l {
				n[kind] = len(seqs)
			}
			return n
		}
		t.Errorf("input logs differ: rig %v records by kind, registry %v", count(rigLog), count(regLog))
	}
}

// logRecords reads the input log under root into each record kind's
// (tag, seq) pairs: events in log order, the rest sorted, since the
// shards write them as their workers run.
func logRecords(t *testing.T, root string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	if _, err := checkpoint.ReadLog(filepath.Join(root, "log"), checkpoint.Fingerprint("registry", "input-log"), func(r checkpoint.Record) {
		kind := string(r.Kind)
		out[kind] = append(out[kind], fmt.Sprintf("%x/%d %020d", r.Tag.FP, r.Tag.Shard, r.Seq))
	}); err != nil {
		t.Fatal(err)
	}
	for kind, recs := range out {
		if kind != string(checkpoint.RecEvent) {
			sort.Strings(recs)
		}
	}
	return out
}

// waitDrained polls until rt has taken n events and every queue is
// empty, so a Kill afterwards discards nothing queued.
func waitDrained(t *testing.T, rt *runtime.Runtime, n int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		s := rt.Snapshot()
		depth := 0
		for _, ss := range s.Shards {
			depth += ss.QueueDepth
		}
		if s.EventsIn == uint64(n) && depth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: events_in=%d, want %d", s.EventsIn, n)
		}
	}
}

// keySet gathers delivered match keys, counting repeats.
type keySet struct {
	mu   sync.Mutex
	seen map[string]int
}

func newKeySet() *keySet { return &keySet{seen: map[string]int{}} }

func (c *keySet) add(_ int, ms []engine.Match) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range ms {
		c.seen[m.Key()]++
	}
}

func (c *keySet) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.seen))
	for k := range c.seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (c *keySet) dups() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k, n := range c.seen {
		if n > 1 {
			out = append(out, fmt.Sprintf("%s x%d", k, n))
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(ms []engine.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}
