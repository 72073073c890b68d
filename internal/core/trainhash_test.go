package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cepshed/internal/citibike"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// modelHash digests every field training fixes: per state the class
// count, the classifier's nodes in pre-order, every class's regions,
// and per class its training frequency and its (slice) estimates,
// floats by their bits.
func modelHash(model *Model) string {
	h := sha256.New()
	u := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	u(uint64(len(model.states)))
	for _, sm := range model.states {
		u(uint64(sm.k))
		if sm.tree == nil {
			u(0)
		} else {
			u(1)
			sm.tree.Walk(func(leaf bool, feature int, threshold float64, label int) {
				if leaf {
					u(2)
					u(uint64(label))
					return
				}
				u(3)
				u(uint64(feature))
				f(threshold)
			})
		}
		u(uint64(len(sm.regions)))
		for _, rs := range sm.regions {
			u(uint64(len(rs)))
			for _, r := range rs {
				for d := range r.Lo {
					f(r.Lo[d])
					f(r.Hi[d])
				}
			}
		}
		for c := 0; c < sm.k; c++ {
			f(sm.freq[c])
			for sl := range sm.contrib[c] {
				f(sm.contrib[c][sl])
				f(sm.consume[c][sl])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainIsBitIdentical pins training bit for bit: a restarted query
// retrains its model and re-applies its persisted estimates to it
// (persist.go), so the classes, classifiers, regions and estimates that
// a (query, stream, config) yields must never move. The hashes were
// computed before the k-means kernel, the gap statistic and the tree
// were rewritten over flat buffers; a change to the RNG draw order, a
// tie-break or the order of floating-point operations shows here.
func TestTrainIsBitIdentical(t *testing.T) {
	ds1 := func(events int, seed int64, ia event.Time) event.Stream {
		return gen.DS1(gen.DS1Config{Events: events, Seed: seed, InterArrival: ia})
	}
	cases := []struct {
		name  string
		q     *query.Query
		train event.Stream
		cfg   TrainConfig
		want  string
	}{
		{"ds1-q1", query.Q1("8ms"), ds1(3000, 11, testIA), TrainConfig{Slices: 4, Seed: 1},
			"ab56992561ec3e459f44b2357e8aea4820d0135ab71e79832477252c0c682425"},
		// One of multiquery-wal's 32 variants on the server's training
		// stream (2 000 DS1 events, seed 1001).
		{"multiquery-variant", query.MustParse("PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V + 3 WITHIN 2ms"),
			ds1(2000, 1001, 15*event.Microsecond), TrainConfig{Slices: 4, Seed: 1},
			"123e4aefd6f1cbce16303836047a216bcd6aff077e5ca37d4176f7fb163230e6"},
		{"citibike-hotpaths", query.HotPaths("5 min", 2, 5), citibike.Generate(citibike.Config{Trips: 2000, Seed: 1001}),
			TrainConfig{Slices: 4, Seed: 1}, "de3430743a0d70806158df1212963d99a3c72151802838c0a337dce422d1fd7c"},
		// The gap statistic's own choice of k, unclamped.
		{"ds1-q1-gap-k", query.Q1("8ms"), ds1(3000, 11, testIA), TrainConfig{Slices: 4, Seed: 9, MinClusters: 1},
			"ed87626407a81d54f3db3cbc5bfee72bc88e0a2222838db2e916e78b304d0e8c"},
		{"ds1-q4-negation", query.Q4("8ms"), ds1(3000, 7, testIA),
			TrainConfig{Slices: 3, Seed: 5, ResourceCosts: true, DeferredNegation: true},
			"7b318a28ac01b9537840f7aab3f4faa438f5c5237da802ee4df7e6a0249fe503"},
	}
	for _, tc := range cases {
		model, err := Train(nfa.MustCompile(tc.q), tc.train, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := modelHash(model); got != tc.want {
			t.Errorf("%s: model hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFeatureKeyGroupsLikeSprint holds fitState's bit keys to the
// fmt.Sprint keys they replaced: two feature vectors share a key exactly
// when they print alike, so the groups and their first-seen order do not
// change. NaNs with other payloads and signs, ±0 and ±Inf are included.
func TestFeatureKeyGroupsLikeSprint(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e300, math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc)}
	var vecs [][]float64
	for _, a := range vals {
		vecs = append(vecs, []float64{a})
		for _, b := range vals {
			vecs = append(vecs, []float64{a, b})
		}
	}
	for i, u := range vecs {
		for _, v := range vecs[i:] {
			sameKey := string(featureKey(nil, u)) == string(featureKey(nil, v))
			if samePrint := fmt.Sprint(u) == fmt.Sprint(v); sameKey != samePrint {
				t.Fatalf("%v and %v: same bit key %v, same Sprint key %v", u, v, sameKey, samePrint)
			}
		}
	}
}
