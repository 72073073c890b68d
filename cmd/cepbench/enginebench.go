package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"cepshed"
	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
)

// This file is the engine benchmark-regression harness: -engine-bench
// measures the raw Engine.Process hot path on the three canonical
// workloads (sequence join, Kleene-heavy, negation), the sequence
// pattern without its equi-joins (nothing for the key index to prune)
// and the sequence join with an adapting Hybrid attached, -bench-out writes
// the result as BENCH_engine.json, and -bench-compare gates the current
// build against a checked-in baseline, failing on >25% ns/event
// regression. See docs/PERFORMANCE.md for the workflow.

// regressionTolerance is the allowed ns/event slowdown before
// -bench-compare fails. Shared hosts show uniform ±20% drift across
// every workload, e.g. when the compare runs right after make check's
// race/chaos suites. A threshold below that noise floor flakes on noise
// rather than catching regressions.
const regressionTolerance = 1.25

// BenchHost fingerprints the machine a baseline was recorded on.
// Comparisons across different hosts warn instead of failing — absolute
// ns/event is only meaningful on like hardware.
type BenchHost struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is part of the fingerprint because the numbers depend
	// on schedulable parallelism (the GC runs beside the measured loop),
	// not just physical CPU count.
	GOMAXPROCS int `json:"gomaxprocs"`
}

func currentHost() BenchHost {
	return BenchHost{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// BenchWorkload is one measured workload.
type BenchWorkload struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	MatchesPerSec  float64 `json:"matches_per_sec"`
	Events         int     `json:"events"`
	Matches        uint64  `json:"matches"`
}

// BenchFile is the serialized form of BENCH_engine.json.
type BenchFile struct {
	Host      BenchHost                `json:"host"`
	Date      string                   `json:"date"`
	Workloads map[string]BenchWorkload `json:"workloads"`
}

type benchCase struct {
	name     string
	machine  *nfa.Machine
	stream   event.Stream
	deferred bool
	// hybrid, when set, builds the strategy each run attaches to its
	// engine and drives through the full per-event strategy protocol.
	hybrid func() *core.Hybrid
}

func engineBenchCases() []benchCase {
	ds1 := gen.DS1(gen.DS1Config{Events: 5000, Seed: 1, InterArrival: 30 * event.Microsecond})
	// q1-ds1-hybrid-adapt prices the cost-model bookkeeping no bare-engine
	// workload sees: classification and ancestor credits per created
	// partial match and a fold every 250 µs of event time (1 ms window,
	// 4 slices: ~600 folds over the stream). The bound is never violated,
	// so nothing is shed and the engine does the work q1-ds1's would at
	// that window.
	adaptQ := nfa.MustCompile(query.Q1("1ms"))
	adaptModel, err := core.Train(adaptQ, gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: 30 * event.Microsecond}),
		core.TrainConfig{Slices: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	// q1-ds1-nojoin is the other side of the key index: no transition
	// leads with an equi-join, so every match sits on the unkeyed chain
	// and every B and C event visits all of them — the pre-index walk,
	// which must not pay for the index it bypasses. The window is 1 ms
	// because nothing correlates the events: it yields 1 646 matches
	// against q1-ds1's 1 131, so the two rows weigh matching and
	// allocation alike.
	nojoin := nfa.MustCompile(query.MustParse(
		`PATTERN SEQ(A a, B b, C c) WHERE a.V + b.V = c.V WITHIN 1ms`))
	return []benchCase{
		{name: "q1-ds1", machine: nfa.MustCompile(query.Q1("8ms")), stream: ds1},
		{name: "q1-ds1-nojoin", machine: nojoin, stream: ds1},
		{name: "q1-ds1-hybrid-adapt", machine: adaptQ, stream: ds1, hybrid: func() *core.Hybrid {
			return core.NewHybrid(adaptModel.Clone(), core.Config{Bound: event.Second, Adapt: true})
		}},
		{
			name:    "kleene-hotpaths",
			machine: nfa.MustCompile(query.HotPaths("5 min", 2, 5)),
			stream:  cepshed.CitiBike(cepshed.CitiBikeConfig{Trips: 1500, Seed: 1}),
		},
		{name: "negation-eager", machine: nfa.MustCompile(query.Q4("8ms")), stream: ds1},
		{name: "negation-deferred", machine: nfa.MustCompile(query.Q4("8ms")), stream: ds1, deferred: true},
	}
}

func measure(c benchCase) BenchWorkload {
	var matches uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			en := engine.New(c.machine, engine.DefaultCosts())
			en.DeferredNegation = c.deferred
			if c.hybrid == nil {
				for _, e := range c.stream {
					en.Process(e)
				}
			} else {
				h := c.hybrid()
				h.Attach(en)
				for _, e := range c.stream {
					h.AdmitEvent(e, e.Time)
					res := en.Process(e)
					h.Observe(&res, e.Time)
					h.Control(e.Time, 0)
				}
			}
			matches = en.Stats().Matches
		}
	})
	events := len(c.stream)
	nsPerEvent := float64(r.NsPerOp()) / float64(events)
	out := BenchWorkload{
		NsPerEvent:     nsPerEvent,
		AllocsPerEvent: float64(r.AllocsPerOp()) / float64(events),
		BytesPerEvent:  float64(r.AllocedBytesPerOp()) / float64(events),
		Events:         events,
		Matches:        matches,
	}
	if r.NsPerOp() > 0 {
		out.MatchesPerSec = float64(matches) / (float64(r.NsPerOp()) / 1e9)
	}
	return out
}

// measureAdmission times the ρI decision alone on an overloaded engine:
// a trained Hybrid with an active shedding set classifies a probe stream
// through the compiled admission table. The setup — training,
// population, knapsack selection — happens once outside the timed
// region; the measurement is purely decisions/second.
func measureAdmission() BenchWorkload {
	m := nfa.MustCompile(query.Q1("8ms"))
	training := gen.DS1(gen.DS1Config{Events: 3000, Seed: 11, InterArrival: 40 * event.Microsecond})
	model, err := core.Train(m, training, core.TrainConfig{Slices: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	h := core.NewHybrid(model, core.Config{Bound: event.Millisecond})
	en := engine.New(m, engine.DefaultCosts())
	h.Attach(en)
	live := gen.DS1(gen.DS1Config{Events: 6000, Seed: 3, InterArrival: 40 * event.Microsecond})
	for _, e := range live[:1000] {
		en.Process(e)
	}
	last := live[999]
	ss := model.SelectSheddingSet(en.PartialMatches(), last.Time, last.Seq, 0.5, 0)
	if ss == nil {
		panic("overload-admission: no shedding set selected; the workload measures nothing")
	}
	h.ImposeSet(ss)
	probe := live[1000:]
	var admitted int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			admitted = 0
			for _, e := range probe {
				if h.AdmitEvent(e, e.Time) {
					admitted++
				}
			}
		}
	})
	if admitted == 0 || admitted == len(probe) {
		panic(fmt.Sprintf("overload-admission: %d of %d admitted; the set filters nothing", admitted, len(probe)))
	}
	events := len(probe)
	return BenchWorkload{
		NsPerEvent:     float64(r.NsPerOp()) / float64(events),
		AllocsPerEvent: float64(r.AllocsPerOp()) / float64(events),
		BytesPerEvent:  float64(r.AllocedBytesPerOp()) / float64(events),
		Events:         events,
		Matches:        uint64(admitted),
	}
}

// benchRepeats is the best-of-N sample count for gated measurements.
// On a shared host a single testing.Benchmark run can swing ±40% with
// co-tenant load; the minimum over a few repetitions estimates the
// uncontended cost on both sides of the comparison, which is what the
// regression gate is meant to compare. Five is where ten runs of ten
// samples each stopped getting tighter (docs/PERFORMANCE.md,
// "Benchmark-regression workflow"): what is left is the host drifting
// between runs, which no N inside one run can see.
const benchRepeats = 5

// bestOf runs f n times and keeps the fastest result by ns/event.
func bestOf(n int, f func() BenchWorkload) BenchWorkload {
	best := f()
	for i := 1; i < n; i++ {
		if w := f(); w.NsPerEvent < best.NsPerEvent {
			best = w
		}
	}
	return best
}

// runEngineBench measures every workload and then writes the baseline,
// compares against one, or just prints — per the flags. Returns the
// process exit code.
func runEngineBench(outPath, comparePath string) int {
	bf := BenchFile{
		Host:      currentHost(),
		Date:      time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]BenchWorkload{},
	}
	cases := engineBenchCases()
	names := make([]string, 0, len(cases)+1)
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "cepbench: measuring %s...\n", c.name)
		c := c
		bf.Workloads[c.name] = bestOf(benchRepeats, func() BenchWorkload { return measure(c) })
		names = append(names, c.name)
	}
	fmt.Fprintf(os.Stderr, "cepbench: measuring overload-admission (ρI decision only)...\n")
	admission := bestOf(benchRepeats, measureAdmission)
	bf.Workloads["overload-admission"] = admission
	names = append(names, "overload-admission")

	fmt.Printf("%-26s %12s %12s %12s %14s\n", "workload", "ns/event", "allocs/event", "B/event", "matches/sec")
	for _, name := range names {
		w := bf.Workloads[name]
		fmt.Printf("%-26s %12.1f %12.2f %12.1f %14.0f\n",
			name, w.NsPerEvent, w.AllocsPerEvent, w.BytesPerEvent, w.MatchesPerSec)
	}

	// Needs no baseline (or host match): the decision path must stay
	// zero-alloc on any host.
	if admission.AllocsPerEvent != 0 {
		fmt.Fprintf(os.Stderr, "cepbench: compiled admission allocates %.2f/event; the decision path must stay zero-alloc\n",
			admission.AllocsPerEvent)
		return 1
	}

	if outPath != "" {
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cepbench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cepbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "cepbench: baseline written to %s\n", outPath)
	}

	if comparePath != "" {
		return compareBaseline(bf, comparePath)
	}
	return 0
}

// compareBaseline gates the measured run against a stored baseline.
func compareBaseline(cur BenchFile, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cepbench: no baseline to compare against (%v); run make bench-baseline first\n", err)
		return 1
	}
	var base BenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "cepbench: corrupt baseline %s: %v\n", path, err)
		return 1
	}
	hostMatch := base.Host == cur.Host
	if !hostMatch {
		fmt.Fprintf(os.Stderr, "cepbench: WARNING: baseline host %+v differs from this host %+v; "+
			"reporting deltas but skipping the hard regression gate\n", base.Host, cur.Host)
	}
	failed := false
	for name, cw := range cur.Workloads {
		bw, ok := base.Workloads[name]
		if !ok || bw.NsPerEvent <= 0 {
			fmt.Printf("%-18s new workload (no baseline)\n", name)
			continue
		}
		ratio := cw.NsPerEvent / bw.NsPerEvent
		verdict := "ok"
		if ratio > regressionTolerance {
			if hostMatch {
				verdict = "REGRESSION"
				failed = true
			} else {
				verdict = "slower (host mismatch, not gated)"
			}
		}
		fmt.Printf("%-18s baseline %8.0f ns/event, now %8.0f ns/event (%+.1f%%)  %s\n",
			name, bw.NsPerEvent, cw.NsPerEvent, (ratio-1)*100, verdict)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "cepbench: ns/event regressed more than %.0f%% against %s\n",
			(regressionTolerance-1)*100, path)
		return 1
	}
	return 0
}
