package cepshed_test

// The bench suite regenerates every figure of the paper's evaluation (one
// benchmark per figure, quarter-scale streams so a full -bench=. run
// stays tractable) and adds micro/ablation benches for the design choices
// DESIGN.md calls out: exact vs greedy knapsack, classifier cost, engine
// throughput with and without structural load.

import (
	"fmt"
	"math/rand"
	"testing"

	"cepshed"
	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/experiments"
	"cepshed/internal/gen"
	"cepshed/internal/knapsack"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/runtime"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := experiments.Options{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatal("no output tables")
		}
	}
}

func BenchmarkFig1PartialMatches(b *testing.B)   { benchFigure(b, "fig1") }
func BenchmarkFig4LatencyBounds(b *testing.B)    { benchFigure(b, "fig4") }
func BenchmarkFig5HybridDetail(b *testing.B)     { benchFigure(b, "fig5") }
func BenchmarkFig6SelectionQuality(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig7Variance(b *testing.B)         { benchFigure(b, "fig7") }
func BenchmarkFig8WindowSize(b *testing.B)       { benchFigure(b, "fig8") }
func BenchmarkFig9PatternLength(b *testing.B)    { benchFigure(b, "fig9") }
func BenchmarkFig10TimeSlices(b *testing.B)      { benchFigure(b, "fig10") }
func BenchmarkFig11ResourceCosts(b *testing.B)   { benchFigure(b, "fig11") }
func BenchmarkFig12Adaptivity(b *testing.B)      { benchFigure(b, "fig12") }
func BenchmarkFig13ClusterGrid(b *testing.B)     { benchFigure(b, "fig13") }
func BenchmarkFig14NonMonotonic(b *testing.B)    { benchFigure(b, "fig14") }
func BenchmarkFig15CitiBike(b *testing.B)        { benchFigure(b, "fig15") }
func BenchmarkFig16Cluster(b *testing.B)         { benchFigure(b, "fig16") }

// BenchmarkEngineThroughput measures raw engine event processing on the
// Q1/DS1 workload (real wall-clock cost per event, all predicates and
// partial-match maintenance included).
func BenchmarkEngineThroughput(b *testing.B) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 1, InterArrival: 30 * event.Microsecond})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := engine.New(m, engine.DefaultCosts())
		for _, e := range s {
			en.Process(e)
		}
	}
	b.ReportMetric(float64(len(s)), "events/op")
}

// BenchmarkEngineKleene measures the Kleene-heavy hot-path workload.
func BenchmarkEngineKleene(b *testing.B) {
	m := nfa.MustCompile(query.HotPaths("5 min", 2, 5))
	s := cepshed.CitiBike(cepshed.CitiBikeConfig{Trips: 3000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := engine.New(m, engine.DefaultCosts())
		for _, e := range s {
			en.Process(e)
		}
	}
}

// BenchmarkEngineNegation measures the eager-negation hot path (Q4/DS1:
// interior NOT B guard killing runs as B events arrive).
func BenchmarkEngineNegation(b *testing.B) {
	m := nfa.MustCompile(query.Q4("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 1, InterArrival: 30 * event.Microsecond})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := engine.New(m, engine.DefaultCosts())
		for _, e := range s {
			en.Process(e)
		}
	}
	b.ReportMetric(float64(len(s)), "events/op")
}

// BenchmarkEngineNegationDeferred is the same workload with witness-based
// deferred negation (the shed-eligible mode of §VI-H).
func BenchmarkEngineNegationDeferred(b *testing.B) {
	m := nfa.MustCompile(query.Q4("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 5000, Seed: 1, InterArrival: 30 * event.Microsecond})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := engine.New(m, engine.DefaultCosts())
		en.DeferredNegation = true
		for _, e := range s {
			en.Process(e)
		}
	}
	b.ReportMetric(float64(len(s)), "events/op")
}

// Ablation: exact dynamic-programming knapsack vs the greedy
// approximation of §V-C, at shedding-set sizes typical for the cost model
// (tens of class cells).
func benchKnapsack(b *testing.B, solver knapsack.Solver, n int) {
	rng := rand.New(rand.NewSource(1))
	items := make([]knapsack.Item, n)
	for i := range items {
		items[i] = knapsack.Item{ID: i, Value: rng.Float64(), Weight: 0.01 + rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knapsack.MinCover(items, 0.4*float64(n)/2, solver)
	}
}

func BenchmarkKnapsackExact40(b *testing.B)   { benchKnapsack(b, knapsack.Exact, 40) }
func BenchmarkKnapsackGreedy40(b *testing.B)  { benchKnapsack(b, knapsack.Greedy, 40) }
func BenchmarkKnapsackExact200(b *testing.B)  { benchKnapsack(b, knapsack.Exact, 200) }
func BenchmarkKnapsackGreedy200(b *testing.B) { benchKnapsack(b, knapsack.Greedy, 200) }

// Ablation: per-partial-match classification cost (the O(tree depth)
// online path of §V-B).
func BenchmarkClassify(b *testing.B) {
	m := nfa.MustCompile(query.Q1("8ms"))
	train := gen.DS1(gen.DS1Config{Events: 3000, Seed: 1, InterArrival: 30 * event.Microsecond})
	model := core.MustTrain(m, train, core.TrainConfig{})
	en := engine.New(m, engine.DefaultCosts())
	s := gen.DS1(gen.DS1Config{Events: 500, Seed: 2, InterArrival: 30 * event.Microsecond})
	for _, e := range s {
		en.Process(e)
	}
	pms := en.PartialMatches()
	if len(pms) == 0 {
		b.Fatal("no live PMs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(pms[i%len(pms)])
	}
}

// Ablation: offline cost-model training end to end.
func BenchmarkTrainCostModel(b *testing.B) {
	m := nfa.MustCompile(query.Q1("8ms"))
	train := gen.DS1(gen.DS1Config{Events: 3000, Seed: 1, InterArrival: 30 * event.Microsecond})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MustTrain(m, train, core.TrainConfig{})
	}
}

// BenchmarkTrain times the cost-model trainings the served workloads make
// before they score: multiquery-wal's 32 Q1 variants (windows 1-4 ms, V
// offsets 0-7) on the server's 2 000-event DS1 training stream, and Q1 on
// the 10 000-event one q1-steady trains on (the bench harness's
// trainingStream: seed 1001, 15 µs spacing, half the warm-up events).
func BenchmarkTrain(b *testing.B) {
	training := func(events int) event.Stream {
		return gen.DS1(gen.DS1Config{Events: events, Seed: 1001, InterArrival: 15 * event.Microsecond})
	}
	cfg := core.TrainConfig{Slices: 4, Seed: 1}
	b.Run("multiquery-wal-32", func(b *testing.B) {
		var machines []*nfa.Machine
		for i := 0; i < 32; i++ {
			machines = append(machines, nfa.MustCompile(query.MustParse(fmt.Sprintf(
				"PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V + %d WITHIN %dms", i/4, 1+i%4))))
		}
		train := training(2000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range machines {
				core.MustTrain(m, train, cfg)
			}
		}
	})
	b.Run("q1-steady", func(b *testing.B) {
		m := nfa.MustCompile(query.Q1("8ms"))
		train := training(10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.MustTrain(m, train, cfg)
		}
	})
}

// Ablation: full hybrid run vs no-shedding run on the same stream.
func BenchmarkHybridRun(b *testing.B) {
	sys := cepshed.MustCompile(cepshed.Q1("8ms"))
	train := cepshed.DS1(cepshed.DS1Config{Events: 3000, Seed: 1, InterArrival: 15 * cepshed.Microsecond})
	work := cepshed.DS1(cepshed.DS1Config{Events: 5000, Seed: 2, InterArrival: 15 * cepshed.Microsecond})
	model := sys.MustTrain(train, cepshed.TrainConfig{})
	truth := sys.Run(work, cepshed.RunOptions{})
	bound := truth.Latency.Mean() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := sys.NewHybrid(model, cepshed.HybridConfig{Bound: bound, Adapt: true})
		sys.Run(work, cepshed.RunOptions{Strategy: h})
	}
}

func BenchmarkNoShedRun(b *testing.B) {
	sys := cepshed.MustCompile(cepshed.Q1("8ms"))
	work := cepshed.DS1(cepshed.DS1Config{Events: 5000, Seed: 2, InterArrival: 15 * cepshed.Microsecond})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(work, cepshed.RunOptions{})
	}
}

// Throughput scaling of the sharded wall-clock runtime vs the
// sequential engine on the Q1/DS1 workload. IDRange is widened to 64 so
// hash partitioning has enough distinct correlation keys to spread load
// across 8 shards (the default 10 IDs cap effective parallelism).
// BenchmarkRuntimeSequentialBaseline is the same stream through one
// bare engine — the number the shard counts are compared against in
// EXPERIMENTS.md.
func runtimeBenchStream() (*nfa.Machine, event.Stream) {
	m := nfa.MustCompile(query.Q1("8ms"))
	s := gen.DS1(gen.DS1Config{Events: 20000, Seed: 1, IDRange: 64, InterArrival: 15 * event.Microsecond})
	return m, s
}

func benchRuntimeShards(b *testing.B, shards int) {
	m, s := runtimeBenchStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := runtime.New(m, runtime.Config{Shards: shards})
		for _, e := range s {
			rt.Offer(e)
		}
		rt.Close()
	}
	b.ReportMetric(float64(len(s)), "events/op")
}

func BenchmarkRuntimeShards1(b *testing.B) { benchRuntimeShards(b, 1) }
func BenchmarkRuntimeShards4(b *testing.B) { benchRuntimeShards(b, 4) }
func BenchmarkRuntimeShards8(b *testing.B) { benchRuntimeShards(b, 8) }

func BenchmarkRuntimeSequentialBaseline(b *testing.B) {
	m, s := runtimeBenchStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := engine.Sequential(m, engine.DefaultCosts(), s, false); len(ms) == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(len(s)), "events/op")
}

// Query parsing throughput.
func BenchmarkParseQuery(b *testing.B) {
	src := cepshed.Q3("8ms").Raw
	for i := 0; i < b.N; i++ {
		if _, err := cepshed.ParseQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}
