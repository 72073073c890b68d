// Command ceprun evaluates an ad-hoc CEP query over a generated dataset
// under a chosen shedding strategy and reports recall, throughput,
// latency, and shed ratios.
//
// Examples:
//
//	ceprun -dataset ds1 -events 20000 \
//	  -query 'PATTERN SEQ(A a, B b, C c) WHERE a.ID=b.ID AND a.ID=c.ID AND a.V+b.V=c.V WITHIN 8ms' \
//	  -strategy Hybrid -bound 0.5
//
//	ceprun -dataset citibike -strategy SS -bound 0.2 -stat p99
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"cepshed/internal/baseline"
	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	rtime "cepshed/internal/runtime"
	"cepshed/internal/shed"
)

func main() {
	var (
		dataset  = flag.String("dataset", "ds1", "dataset: ds1, ds2, citibike, gcluster")
		events   = flag.Int("events", 20000, "stream length (trips/tasks for the case studies)")
		seed     = flag.Int64("seed", 1, "generator seed")
		querySrc = flag.String("query", "", "query text (default: the paper query for the dataset)")
		strategy = flag.String("strategy", "Hybrid", "None, RI, SI, PI, RS, SS, Hybrid, HyI, HyS")
		explain  = flag.Bool("explain", false, "print the compiled automaton plan and exit")
		bound    = flag.Float64("bound", 0.5, "latency bound as a fraction of the unshedded latency")
		stat     = flag.String("stat", "avg", "latency statistic the bound applies to: avg, p95, p99")
		useRT    = flag.Bool("runtime", false, "also run through the sharded wall-clock runtime and report both latency domains")
		shards   = flag.Int("shards", 4, "shard count for -runtime")
	)
	flag.Parse()

	train, work, defQuery, err := gen.Dataset(*dataset, *events, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ceprun:", err)
		os.Exit(2)
	}
	src := *querySrc
	if src == "" {
		src = defQuery
	}
	q, err := query.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ceprun:", err)
		os.Exit(2)
	}
	m, err := nfa.Compile(q)
	if err == nil && *useRT {
		err = rtime.CheckCountWindow(q, *shards)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ceprun:", err)
		os.Exit(2)
	}
	if *explain {
		fmt.Print(m.Explain())
		return
	}

	var boundStat metrics.BoundStat
	switch *stat {
	case "p95":
		boundStat = metrics.BoundP95
	case "p99":
		boundStat = metrics.BoundP99
	default:
		boundStat = metrics.BoundMean
	}

	runner := newRunner(m, train, work, boundStat)
	truth := runner.truth()
	fmt.Printf("query: %s\n", q)
	fmt.Printf("stream: %d events over %s\n", len(work), work.Duration())
	fmt.Printf("unshedded: %d matches, %s latency %s, throughput %.0f events/s\n",
		len(truth.Matches), boundStat, boundStat.Of(truth.Latency), truth.Throughput)

	if *strategy != "None" {
		res := runner.run(*strategy, *bound, *seed)
		fmt.Printf("\nstrategy %s at %.0f%% %s-latency bound (virtual time):\n", res.Strategy, *bound*100, boundStat)
		fmt.Printf("  recall      %.1f%%\n", 100*metrics.Recall(truth.MatchSet(), res.MatchSet()))
		if q.HasNegation() {
			fmt.Printf("  precision   %.1f%%\n", 100*metrics.Precision(truth.MatchSet(), res.MatchSet()))
		}
		fmt.Printf("  throughput  %.0f events/s\n", res.Throughput)
		fmt.Printf("  latency     %s (bound %s)\n", boundStat.Of(res.Latency), runner.boundAt(*bound))
		fmt.Printf("  shed events %.1f%% (%d)\n", 100*res.ShedEventRatio(), res.ShedEvents)
		fmt.Printf("  shed PMs    %.1f%% (%d of %d)\n",
			100*res.ShedPMRatio(), res.Stats.DroppedPMs, res.Stats.CreatedPMs)
	}

	if *useRT {
		runner.runWallclock(*strategy, *bound, *seed, *shards, truth)
	}
}

// runWallclock routes the workload through the sharded wall-clock
// runtime: first an unshedded pass to calibrate the wall-clock bound at
// the same fraction the virtual run used, then the strategy pass. Both
// latency domains end up side by side in the output.
func (r *runner) runWallclock(name string, frac float64, seed int64, shards int, truth *metrics.RunResult) {
	feed := func(factory func(int) shed.Strategy) (rtime.Snapshot, metrics.MatchSet, time.Duration) {
		var mu sync.Mutex
		got := metrics.MatchSet{}
		rt := rtime.New(r.m, rtime.Config{
			Shards:      shards,
			NewStrategy: factory,
			OnMatches: func(_ int, ms []engine.Match) {
				mu.Lock()
				defer mu.Unlock()
				for _, m := range ms {
					got[m.Key()] = true
				}
			},
			DeferredNegation: r.m.Query.HasNegation(),
		})
		start := time.Now()
		for _, e := range r.work {
			rt.Offer(e)
		}
		rt.Close()
		elapsed := time.Since(start)
		return rt.Snapshot(), got, elapsed
	}

	base, baseMatches, baseElapsed := feed(nil)
	baseStat := wallStat(r.stat, base)
	fmt.Printf("\nwall-clock runtime (%d shards, key %q):\n", shards, rtime.InferPartitionKey(r.m.Query))
	fmt.Printf("  unshedded   %s %s, %d matches, %.0f events/s wall\n",
		r.stat, baseStat, base.Matches, float64(base.EventsIn)/baseElapsed.Seconds())
	fmt.Printf("  recall vs virtual truth %.1f%%\n",
		100*metrics.Recall(truth.MatchSet(), baseMatches))
	if name == "None" {
		return
	}

	wallBound := event.Time(frac * float64(baseStat.Nanoseconds()))
	factory := func(i int) shed.Strategy { return r.buildStrategy(name, wallBound, seed+int64(i)) }
	snap, got, elapsed := feed(factory)
	fmt.Printf("\n  strategy %s at %.0f%% wall %s bound (%s):\n", name, frac*100, r.stat, time.Duration(wallBound))
	fmt.Printf("    recall      %.1f%%\n", 100*metrics.Recall(truth.MatchSet(), got))
	fmt.Printf("    wall rate   %.0f events/s\n", float64(snap.EventsIn)/elapsed.Seconds())
	fmt.Printf("    latency     p50 %s  p95 %s  p99 %s (virtual run: %s)\n",
		snap.P50, snap.P95, snap.P99, r.stat.Of(r.truth().Latency))
	fmt.Printf("    shed events %.1f%% (%d)\n", 100*snap.InputShedRatio, snap.EventsShed)
	fmt.Printf("    shed PMs    %.1f%% (%d of %d)\n",
		100*snap.PMShedRatio, snap.DroppedPMs, snap.CreatedPMs)
}

// wallStat maps the bound statistic onto a wall-clock snapshot.
func wallStat(stat metrics.BoundStat, s rtime.Snapshot) time.Duration {
	switch stat {
	case metrics.BoundP95:
		return s.P95
	case metrics.BoundP99:
		return s.P99
	default:
		return s.MeanLatency
	}
}

// runner lazily builds strategies over one configuration, mirroring the
// experiment harness.
type runner struct {
	m          *nfa.Machine
	train      event.Stream
	work       event.Stream
	stat       metrics.BoundStat
	truthCache *metrics.RunResult
	sel        *baseline.Selectivity
	model      *core.Model
}

func newRunner(m *nfa.Machine, train, work event.Stream, stat metrics.BoundStat) *runner {
	return &runner{m: m, train: train, work: work, stat: stat}
}

func (r *runner) truth() *metrics.RunResult {
	if r.truthCache == nil {
		r.truthCache = metrics.Run(r.m, r.work, metrics.RunConfig{
			BoundStat: r.stat, DeferredNegation: r.m.Query.HasNegation(),
		})
	}
	return r.truthCache
}

func (r *runner) boundAt(frac float64) event.Time {
	return event.Time(frac * float64(r.stat.Of(r.truth().Latency)))
}

func (r *runner) run(name string, frac float64, seed int64) *metrics.RunResult {
	strat := r.buildStrategy(name, r.boundAt(frac), seed)
	return metrics.Run(r.m, r.work, metrics.RunConfig{
		Strategy: strat, BoundStat: r.stat, DeferredNegation: r.m.Query.HasNegation(),
	})
}

// buildStrategy constructs a fresh strategy instance for the given
// latency bound — virtual time for metrics.Run, wall-clock nanoseconds
// for the sharded runtime (the unit maps 1:1). The cost model is trained
// once and each strategy gets a clone: online adaptation mutates it.
func (r *runner) buildStrategy(name string, bound event.Time, seed int64) shed.Strategy {
	var strat shed.Strategy
	switch name {
	case "RI":
		strat = baseline.NewRandomInput(bound, seed)
	case "SI":
		if r.sel == nil {
			r.sel = baseline.EstimateSelectivity(r.m, r.train)
		}
		strat = baseline.NewSelectivityInput(r.sel, bound, seed)
	case "PI":
		strat = baseline.NewPositionInput(
			baseline.EstimatePositionUtility(r.m, r.train), bound, seed)
	case "RS":
		strat = baseline.NewRandomState(bound, seed)
	case "SS":
		if r.sel == nil {
			r.sel = baseline.EstimateSelectivity(r.m, r.train)
		}
		strat = baseline.NewSelectivityState(r.sel, bound, seed)
	case "Hybrid", "HyI", "HyS":
		if r.model == nil {
			r.model = core.MustTrain(r.m, r.train, core.TrainConfig{
				Slices: 4, Seed: 1, DeferredNegation: r.m.Query.HasNegation(),
			})
		}
		mode := core.ModeHybrid
		if name == "HyI" {
			mode = core.ModeInputOnly
		} else if name == "HyS" {
			mode = core.ModeStateOnly
		}
		strat = core.NewHybrid(r.model.Clone(), core.Config{Bound: bound, Mode: mode, Adapt: true})
	default:
		fmt.Fprintf(os.Stderr, "ceprun: unknown strategy %q\n", name)
		os.Exit(2)
	}
	return strat
}
