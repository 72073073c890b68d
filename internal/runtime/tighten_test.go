package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"cepshed/internal/baseline"
	"cepshed/internal/core"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/shed"
	"cepshed/internal/vclock"
)

// tightened runs a strategy's control step through the shard's helper,
// as a shard does under excess fraction x.
type tightened struct {
	shed.Strategy
	x float64
}

func (s tightened) Control(now, lat event.Time) vclock.Cost {
	return s.Strategy.Control(now, tighten(lat, s.x))
}

// Handing a strategy lat/(1−x) must be the same as building it against
// θ·(1−x): that is what lets the arbiter and the ladder tighten a
// query's bound without touching its strategy. Every strategy the
// server runs goes over one seeded DS1 stream in virtual time, once
// wrapped at θ and once built at θ·(1−x); with θ a multiple of 4 both
// sides are exact in float64, so they must find the same matches and
// shed the same events and partial matches.
func TestTightenIsATighterBound(t *testing.T) {
	m := nfa.MustCompile(query.Q1("8ms"))
	train := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: 10 * event.Microsecond})
	work := gen.DS1(gen.DS1Config{Events: 4000, Seed: 3, InterArrival: 10 * event.Microsecond})
	sel := baseline.EstimateSelectivity(m, train)
	pos := baseline.EstimatePositionUtility(m, train)
	model := core.MustTrain(m, train, core.TrainConfig{Slices: 4, Seed: 1})
	// θ at the unshedded mean latency: x = 0.5 and 0.75 put the bound well
	// below what the stream costs, so every strategy has work to do.
	theta := metrics.Run(m, work, metrics.RunConfig{}).Latency.Mean() / 4 * 4

	cases := []struct {
		name  string
		build func(bound event.Time) shed.Strategy
	}{
		{"RI", func(b event.Time) shed.Strategy { return baseline.NewRandomInput(b, 7) }},
		{"SI", func(b event.Time) shed.Strategy { return baseline.NewSelectivityInput(sel, b, 7) }},
		{"PI", func(b event.Time) shed.Strategy { return baseline.NewPositionInput(pos, b, 7) }},
		{"RS", func(b event.Time) shed.Strategy { return baseline.NewRandomState(b, 7) }},
		{"SS", func(b event.Time) shed.Strategy { return baseline.NewSelectivityState(sel, b, 7) }},
		{"Hybrid", func(b event.Time) shed.Strategy {
			return core.NewHybrid(model.Clone(), core.Config{Bound: b, Adapt: true})
		}},
	}
	type outcome struct {
		Matches    metrics.MatchSet
		ShedEvents int
		DroppedPMs uint64
	}
	run := func(s shed.Strategy) outcome {
		r := metrics.Run(m, work, metrics.RunConfig{Strategy: s})
		return outcome{r.MatchSet(), r.ShedEvents, r.Stats.DroppedPMs}
	}
	for _, c := range cases {
		for _, x := range []float64{0.5, 0.75} {
			t.Run(fmt.Sprintf("%s/x=%.2f", c.name, x), func(t *testing.T) {
				wrapped := run(tightened{c.build(theta), x})
				direct := run(c.build(event.Time(float64(theta) * (1 - x))))
				if wrapped.ShedEvents+int(wrapped.DroppedPMs) == 0 {
					t.Fatalf("nothing shed at θ = %v: the case tests nothing", theta)
				}
				if !reflect.DeepEqual(wrapped, direct) {
					t.Errorf("lat/(1−x) against θ: %d matches, %d events shed, %d PMs dropped; θ·(1−x): %d, %d, %d",
						len(wrapped.Matches), wrapped.ShedEvents, wrapped.DroppedPMs,
						len(direct.Matches), direct.ShedEvents, direct.DroppedPMs)
				}
			})
		}
	}
}
