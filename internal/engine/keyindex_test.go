package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cepshed/internal/event"
	"cepshed/internal/gcluster"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// Scenarios for the equi-join key index, all through runDifferential:
// whatever the index prunes, matches, Stats (PredEvals included) and
// per-event Work must equal the exhaustive scan's.

// awkwardKeys are join values chosen to stress canonical(): ints and
// floats that are Equal across kinds, both zeros, NaN (equal to nothing,
// itself included), strings that look like numbers, and ints beyond 2^53
// where Equal is not transitive (Int(2^53) = Float(2^53) = Int(2^53+1)
// numerically as floats, but the two ints differ).
var awkwardKeys = []event.Value{
	event.Int(5), event.Float(5), event.Float(5.5),
	event.Int(0), event.Float(0), event.Float(math.Copysign(0, -1)),
	event.Float(math.NaN()),
	event.Str("5"), event.Str("x"), event.Str(""),
	event.Int(1 << 53), event.Int(1<<53 + 1), event.Float(1 << 53),
	event.Int(-7), event.Float(-7),
}

// awkwardStream is a DS1-shaped stream (types A/B/C, attributes ID and
// V) whose IDs are drawn from awkwardKeys; one event in eight has no ID
// at all, so both bound events and arriving events lack the key
// attribute sometimes.
func awkwardStream(rng *rand.Rand, n int) event.Stream {
	var b event.Builder
	types := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		attrs := map[string]event.Value{"V": event.Int(int64(rng.Intn(4)))}
		if rng.Intn(8) != 0 {
			attrs["ID"] = awkwardKeys[rng.Intn(len(awkwardKeys))]
		}
		b.Add(event.New(types[rng.Intn(3)], event.Time(i)*30*event.Microsecond, attrs))
	}
	return b.Finish()
}

// checkIndex recomputes every bucket's bookkeeping from its entries:
// chains partition the entries in ascending order, unit and live tallies
// match the live entries, and every key slot is reachable from exactly
// one map entry.
func checkIndex(en *Engine) error {
	dead := 0
	for typ, b := range en.index {
		seen := make([]bool, len(b.entries))
		walk := func(c chain, key int32) (live, units int, err error) {
			last := int32(-1)
			for i := c.head; i >= 0; i = b.entries[i].next {
				ent := &b.entries[i]
				if i <= last || seen[i] || ent.key != key {
					return 0, 0, fmt.Errorf("bucket %s: broken chain at %d (key %d)", typ, i, key)
				}
				seen[i], last = true, i
				if !ent.live() {
					continue
				}
				live++
				for _, tf := range en.reactionsOf(ent.pm, nil) {
					if tf.b == b {
						units += tf.units
						if (tf.key.kind == event.KindNone) != (key < 0) || (key >= 0 && tf.key != b.keys[key].val) {
							return 0, 0, fmt.Errorf("bucket %s: entry %d filed under the wrong key", typ, i)
						}
					}
				}
			}
			if last != c.tail {
				return 0, 0, fmt.Errorf("bucket %s: chain tail %d, walked to %d", typ, c.tail, last)
			}
			return live, units, nil
		}
		ukLive, _, err := walk(b.unkeyed, -1)
		if err != nil {
			return err
		}
		keyedLive, keyedUnits, slots := 0, 0, 0
		for k := range b.keys {
			kc := &b.keys[k]
			if kc.val.kind == event.KindNone {
				continue // free slot
			}
			slots++
			if b.slot(kc.val) != int32(k) {
				return fmt.Errorf("bucket %s: slot %d not mapped from its value", typ, k)
			}
			live, units, err := walk(kc.chain, int32(k))
			if err != nil {
				return err
			}
			if live != kc.live || units != kc.units {
				return fmt.Errorf("bucket %s key %v: live %d units %d, recorded %d/%d", typ, kc.val, live, units, kc.live, kc.units)
			}
			keyedLive += live
			keyedUnits += units
		}
		if slots != len(b.num)+len(b.str) || slots+len(b.freeKeys) != len(b.keys) {
			return fmt.Errorf("bucket %s: %d slots in use, %d+%d mapped, %d free of %d", typ, slots, len(b.num), len(b.str), len(b.freeKeys), len(b.keys))
		}
		if keyedLive != b.keyedLive || keyedUnits != b.units {
			return fmt.Errorf("bucket %s: keyed live %d units %d, recorded %d/%d", typ, keyedLive, keyedUnits, b.keyedLive, b.units)
		}
		for i := range seen {
			if !seen[i] {
				return fmt.Errorf("bucket %s: entry %d on no chain", typ, i)
			}
		}
		if got := len(b.entries) - ukLive - keyedLive; got != b.dead {
			return fmt.Errorf("bucket %s: %d dead entries, recorded %d", typ, got, b.dead)
		}
		dead += b.dead
	}
	if dead != en.indexDead {
		return fmt.Errorf("index dead %d, recorded %d", dead, en.indexDead)
	}
	return nil
}

// prunedShare runs s through a fresh engine and returns the share of
// index entries the key index skipped.
func prunedShare(t *testing.T, q *query.Query, s event.Stream) float64 {
	t.Helper()
	en := New(nfa.MustCompile(q), DefaultCosts())
	for _, e := range s {
		en.Process(e)
	}
	if err := checkIndex(en); err != nil {
		t.Fatal(err)
	}
	st := en.IndexStats()
	if st.Visited+st.Pruned == 0 {
		t.Fatal("stream exercised no index entry")
	}
	return float64(st.Pruned) / float64(st.Visited+st.Pruned)
}

func TestDifferentialAwkwardKeys(t *testing.T) {
	queries := map[string]*query.Query{
		"sequence": query.MustParse(`PATTERN SEQ(A a, B b, C c)
			WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V WITHIN 2ms`),
		"kleene":            query.Q2("1ms", 1, 3),
		"negation-eager":    query.Q4("2ms"),
		"negation-deferred": query.Q4("2ms"),
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				s := awkwardStream(rand.New(rand.NewSource(seed)), 1200)
				deferred := name == "negation-deferred"
				runDifferential(t, q, deferred, s, 0)
				runDifferential(t, q, deferred, s, 13)
			}
		})
	}
	// The streams must actually reach the keyed path.
	if p := prunedShare(t, queries["sequence"], awkwardStream(rand.New(rand.NewSource(1)), 1200)); p < 0.5 {
		t.Errorf("awkward-key stream pruned only %.2f of its index entries", p)
	}
}

// TestCanonicalNeverSplitsEqualValues is the prune-only argument in one
// loop: values that are Equal must share a canonical form (different
// forms may only ever separate values the equi-join rejects), and NaN
// and absent values have none.
func TestCanonicalNeverSplitsEqualValues(t *testing.T) {
	vals := append([]event.Value{{}}, awkwardKeys...)
	for _, a := range vals {
		for _, b := range vals {
			ca, cb := canonical(a), canonical(b)
			if a.Equal(b) && a.Kind != event.KindNone && ca != cb {
				t.Errorf("%s = %s but canonical forms differ: %+v vs %+v", a, b, ca, cb)
			}
		}
		if f := a.AsFloat(); (a.Kind == event.KindNone || f != f) != (canonical(a).kind == event.KindNone) {
			t.Errorf("canonical(%s) = %+v", a, canonical(a))
		}
	}
}

// Queries the index must leave alone end up on the unkeyed chain: take
// and proceed joining on different attributes, reactions that join the
// same attribute against different bound values, and a leading predicate
// that is not an equi-join.
func TestDifferentialUnkeyedQueries(t *testing.T) {
	split := query.MustParse(`PATTERN SEQ(A+ a[], A b)
		WHERE a[i+1].ID = a[i].ID AND a[last].V = b.V WITHIN 400us`)
	nojoin := query.MustParse(`PATTERN SEQ(A a, B b, C c) WHERE a.V + b.V = c.V WITHIN 400us`)
	lateJoin := query.MustParse(`PATTERN SEQ(A a, B b, C c)
		WHERE a.V <= b.V AND a.ID = b.ID AND b.V <= c.V AND a.ID = c.ID WITHIN 1ms`)
	// take joins ID against a.ID, proceed joins ID against b[last].V:
	// keyed exactly when the two bound values agree.
	mixed := query.MustParse(`PATTERN SEQ(A a, A+ b[]{1,3}, A c)
		WHERE a.ID = b[i].ID AND b[last].V = c.ID WITHIN 400us`)
	for seed := int64(1); seed <= 3; seed++ {
		s := awkwardStream(rand.New(rand.NewSource(seed+20)), 900)
		for _, q := range []*query.Query{split, nojoin, lateJoin, mixed} {
			runDifferential(t, q, false, s, 0)
			runDifferential(t, q, false, s, 11)
		}
	}
	s := awkwardStream(rand.New(rand.NewSource(7)), 900)
	for name, q := range map[string]*query.Query{"nojoin": nojoin, "late-join": lateJoin} {
		if p := prunedShare(t, q, s); p != 0 {
			t.Errorf("%s: pruned share %.3f, want every entry unkeyed", name, p)
		}
	}
	// split: the take is keyed on ID, the proceed (same type, other
	// attribute) is not, so a run that can do both is unkeyed; only
	// full-length runs — proceed only, unkeyed too — and nothing else
	// would be keyed. mixed is keyed for some matches and not others.
	if p := prunedShare(t, split, s); p != 0 {
		t.Errorf("split: pruned share %.3f, want 0", p)
	}
	if p := prunedShare(t, mixed, s); p == 0 || p == 1 {
		t.Errorf("mixed: pruned share %.3f, want both keyed and unkeyed entries", p)
	}
}

// ClusterTasks is the longest paper query: six keyed transitions on
// task, with machine inequalities behind them.
func TestDifferentialClusterTasks(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		s := gcluster.Generate(gcluster.Config{Tasks: 300, Seed: seed})
		runDifferential(t, query.ClusterTasks("1h"), false, s, 0)
		runDifferential(t, query.ClusterTasks("1h"), false, s, 23)
	}
}

// A snapshot does not carry the index; Restore re-registers every match
// and the key chains rebuild themselves.
func TestSnapshotRestoreRebuildsKeyIndex(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := awkwardStream(rng, 900)
		bikes := bikeStream(rng, 300)
		for _, cut := range []int{1, rng.Intn(200) + 50, 299} {
			runSnapshotDifferential(t, query.Q1("2ms"), false, false, s, cut*3)
			runSnapshotDifferential(t, query.Q2("1ms", 1, 3), false, false, s, cut*3)
			runSnapshotDifferential(t, query.HotPaths("4ms", 2, 5), false, false, bikes, cut)
		}
	}
}

// Key values come from outside the program: 10^5 distinct IDs through a
// short window must leave the key maps holding O(live) values. A bucket
// whose type keeps arriving compacts itself once dead entries outnumber
// live ones past a floor of 32; one whose type never arrives is left to
// the engine-wide valve (1024 dead entries).
func TestKeyMapsStayProportionalToLiveMatches(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sendB   bool
		maxKeys int
	}{
		{name: "reacting-type-arrives", sendB: true, maxKeys: 100},
		{name: "reacting-type-silent", sendB: false, maxKeys: 1024 + 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := nfa.MustCompile(query.MustParse(`PATTERN SEQ(A a, B b) WHERE a.ID = b.ID WITHIN 100us`))
			en := New(m, DefaultCosts())
			keys := func() int {
				n := 0
				for _, b := range en.index {
					n += len(b.num) + len(b.str)
				}
				return n
			}
			peak := 0
			for i := 0; i < 100_000; i++ {
				id := event.Int(int64(i))
				if i%4 >= 2 {
					id = event.Str(fmt.Sprint("k", i))
				}
				typ := "A"
				if tc.sendB && i%2 == 1 {
					typ = "B" // joins nothing: every ID is used once
				}
				e := event.New(typ, event.Time(i)*10*event.Microsecond, map[string]event.Value{"ID": id})
				e.Seq = uint64(i)
				en.Process(e)
				if k := keys(); k > peak {
					peak = k
				}
			}
			if live := en.LiveCount(); live > 12 {
				t.Fatalf("window holds %d live runs, want at most 10", live)
			}
			if peak > tc.maxKeys {
				t.Errorf("key maps peaked at %d values with ~10 live matches", peak)
			}
			if err := checkIndex(en); err != nil {
				t.Fatal(err)
			}
			en.Flush()
			if k := keys(); k != 0 {
				t.Errorf("%d key values survive Flush", k)
			}
		})
	}
}
