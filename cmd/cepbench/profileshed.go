package main

import (
	"fmt"
	"os"
	"runtime/pprof"

	"cepshed/internal/core"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// runProfileShed records a CPU profile of an overloaded async-planner
// run — a bound violated from the first event, driven long enough to
// accumulate samples — and writes it to out. Worker
// goroutines run under the pprof label cep_role=worker and the planner
// under cep_role=shed_planner, so `make profile-shed` can prove from the
// profile that shedding-set selection, the knapsack, and admission-table
// compilation never execute on a worker's hot stack. Online adaptation is
// on, so the same profile shows whether the cost-model bookkeeping
// formats or hashes anything per partial match or per epoch.
func runProfileShed(out string) int {
	m := nfa.MustCompile(query.Q1("8ms"))
	training := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: 40 * event.Microsecond})
	model, err := core.Train(m, training, core.TrainConfig{Slices: 4, Seed: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cepbench: train: %v\n", err)
		return 1
	}
	s := gen.DS1(gen.DS1Config{Events: 30000, Seed: 3, InterArrival: 10 * event.Microsecond})

	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cepbench: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "cepbench: %v\n", err)
		return 1
	}
	var plansApplied, dropped, folds uint64
	for iter := 0; iter < 4; iter++ {
		rt := runtime.New(m, runtime.Config{
			Shards: 1,
			NewStrategy: func(int) shed.Strategy {
				return core.NewHybrid(model.Clone(), core.Config{
					Bound:       event.Time(1),
					DelayEvents: 500,
					AsyncPlan:   true,
					Adapt:       true,
				})
			},
		})
		rt.WaitRecovered()
		offerAll(rt, s)
		rt.Close()
		snap := rt.Snapshot()
		plansApplied += snap.PlansApplied
		dropped += snap.DroppedPMs
		folds += snap.AdaptFolds
	}
	pprof.StopCPUProfile()
	if plansApplied == 0 || dropped == 0 || folds == 0 {
		fmt.Fprintf(os.Stderr, "cepbench: profile-shed run applied %d plans, dropped %d PMs, folded %d epochs; the profile does not exercise the planner and the adapter\n",
			plansApplied, dropped, folds)
		return 1
	}
	fmt.Fprintf(os.Stderr, "cepbench: shed profile written to %s (%d plans applied, %d PMs dropped, %d epochs folded)\n", out, plansApplied, dropped, folds)
	return 0
}

// offerAll pushes a stream through the runtime the way cepserved does,
// batching the handoff where the API allows it.
func offerAll(r *runtime.Runtime, s event.Stream) {
	const chunk = 256
	for i := 0; i < len(s); i += chunk {
		end := i + chunk
		if end > len(s) {
			end = len(s)
		}
		r.OfferBatch(s[i:end])
	}
}
