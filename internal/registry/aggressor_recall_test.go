package registry_test

import (
	"sync"
	"testing"
	"time"

	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// TestAggressorRecall measures, and only logs, what the arbiter costs
// the query it sheds: an aggressor runs Hybrid on Q1 over a DS1 stream
// whose every routed event costs 200µs of worker CPU, paced at about 60%
// of one shard, under an arbiter capacity of 0.1 cores. Its recall is
// against engine.Sequential over the same stream. The test uses only
// registry API that predates the excess fraction, so the same file
// measures an older tree for comparison.
func TestAggressorRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("paced wall-clock run")
	}
	m := nfa.MustCompile(query.Q1("8ms"))
	train := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: 15 * event.Microsecond})
	work := gen.DS1(gen.DS1Config{Events: 4000, Seed: 3, InterArrival: 15 * event.Microsecond})
	model := core.MustTrain(m, train, core.TrainConfig{Slices: 4, Seed: 1})

	var mu sync.Mutex
	got := metrics.MatchSet{}
	g, err := registry.Open(registry.Config{
		Shards:   1,
		QueueLen: 4096,
		Arbiter:  registry.ArbiterConfig{Interval: 20 * time.Millisecond, Capacity: 0.1},
		NewStrategy: func(spec registry.QuerySpec, m *nfa.Machine, bound time.Duration) (func(int) shed.Strategy, error) {
			return func(int) shed.Strategy {
				return core.NewHybrid(model.Clone(), core.Config{Bound: event.Time(bound), Adapt: true, AsyncPlan: true})
			}, nil
		},
		OnMatches: func(_ registry.QuerySpec, _ int, ms []engine.Match) {
			mu.Lock()
			defer mu.Unlock()
			for _, m := range ms {
				got[m.Key()] = true
			}
		},
		TuneRuntime: func(_ registry.QuerySpec, rc *runtime.Config) {
			rc.BeforeProcess = func(int, *event.Event) {
				for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetTenant(registry.Tenant{Name: "aggressor", Theta: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	agg, err := g.Add(registry.QuerySpec{Tenant: "aggressor", Name: "q1", Query: m.Query.Raw})
	if err != nil {
		t.Fatal(err)
	}
	agg.WaitReady()

	const batch = 32 // ~24 routed (D is not in Q1) × 200µs ≈ 4.8ms of work, offered every 8ms
	for lo := 0; lo < len(work); lo += batch {
		hi := min(lo+batch, len(work))
		g.OfferBatch(append([]*event.Event(nil), work[lo:hi]...))
		time.Sleep(8 * time.Millisecond)
	}
	snap := g.Snapshot()
	g.Close()
	rs := agg.Runtime().Snapshot()

	truth := metrics.Keys(nil)
	for _, m := range engine.Sequential(m, engine.DefaultCosts(), work, false) {
		truth[m.Key()] = true
	}
	t.Logf("aggressor recall %.3f (%d of %d matches): events_in %d, ρI-shed %d, PMs dropped %d, door-rejected %d, arbiter-dropped %d, arbiter %+v",
		metrics.Recall(truth, got), len(got), len(truth), rs.EventsIn, rs.EventsShed, rs.DroppedPMs,
		rs.AdmissionRejected, snap.ImposedDrops, snap.Arbiter.Tenants)
}
