package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cepshed"
	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/vclock"
)

// This file is the engine benchmark-regression harness: -engine-bench
// measures the raw Engine.Process hot path on the three canonical
// workloads (sequence join, Kleene-heavy, negation), the sequence
// pattern without its equi-joins (nothing for the key index to prune)
// and the sequence join with an adapting Hybrid attached, -bench-out writes
// the result as BENCH_engine.json, and -bench-compare gates the current
// build against a checked-in baseline on what is deterministic: virtual
// work and matches exactly, allocations within allocTolerance. ns/event
// is reported beside them but never gated — on a shared host it drifts
// by more than any useful tolerance between runs. See docs/PERFORMANCE.md
// for the workflow.

// allocTolerance is the allowed rise in allocs/event before
// -bench-compare fails. The count is an average over b.N iterations, so
// it moves only by what sync.Pool refills after a GC cost.
const allocTolerance = 1.05

// BenchHost fingerprints the machine a baseline was recorded on. Only
// ns/event depends on it; the compare notes a mismatch and goes on.
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
	// WorkPerEvent is the engine's virtual work (summed Result.Work) per
	// event: a pure function of the engine, the query and the stream.
	WorkPerEvent  float64 `json:"work_per_event"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	MatchesPerSec float64 `json:"matches_per_sec"`
	Events        int     `json:"events"`
	Matches       uint64  `json:"matches"`
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
	var work vclock.Cost
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			en := engine.New(c.machine, engine.DefaultCosts())
			en.DeferredNegation = c.deferred
			work = 0
			if c.hybrid == nil {
				for _, e := range c.stream {
					work += en.Process(e).Work
				}
			} else {
				h := c.hybrid()
				h.Attach(en)
				for _, e := range c.stream {
					h.AdmitEvent(e, e.Time)
					res := en.Process(e)
					work += res.Work
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
		WorkPerEvent:   float64(work) / float64(events),
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
	ss := model.SelectSheddingSet(en, last.Time, last.Seq, 0.5, 0)
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
		bf.Workloads[c.name] = measure(c)
		names = append(names, c.name)
	}
	fmt.Fprintf(os.Stderr, "cepbench: measuring overload-admission (ρI decision only)...\n")
	admission := measureAdmission()
	bf.Workloads["overload-admission"] = admission
	names = append(names, "overload-admission")

	fmt.Printf("%-26s %12s %12s %12s %12s %14s\n", "workload", "ns/event", "allocs/event", "B/event", "work/event", "matches/sec")
	for _, name := range names {
		w := bf.Workloads[name]
		fmt.Printf("%-26s %12.1f %12.2f %12.1f %12.1f %14.0f\n",
			name, w.NsPerEvent, w.AllocsPerEvent, w.BytesPerEvent, w.WorkPerEvent, w.MatchesPerSec)
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

// compareBaseline gates the measured run against a stored baseline:
// matches and work/event must equal it exactly, allocs/event may rise by
// allocTolerance. ns/event deltas are printed, not gated.
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
	if base.Host != cur.Host {
		fmt.Fprintf(os.Stderr, "cepbench: note: baseline host %+v differs from this host %+v; ns/event deltas compare different hardware\n",
			base.Host, cur.Host)
	}
	names := make([]string, 0, len(cur.Workloads))
	for name := range cur.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		cw := cur.Workloads[name]
		bw, ok := base.Workloads[name]
		if !ok {
			fmt.Printf("%-20s new workload (no baseline)\n", name)
			continue
		}
		var problems []string
		if cw.Matches != bw.Matches {
			problems = append(problems, fmt.Sprintf("matches %d, baseline %d", cw.Matches, bw.Matches))
		}
		if cw.WorkPerEvent != bw.WorkPerEvent {
			problems = append(problems, fmt.Sprintf("work/event %.3f, baseline %.3f", cw.WorkPerEvent, bw.WorkPerEvent))
		}
		if cw.AllocsPerEvent > bw.AllocsPerEvent*allocTolerance {
			problems = append(problems, fmt.Sprintf("allocs/event %.3f, baseline %.3f", cw.AllocsPerEvent, bw.AllocsPerEvent))
		}
		verdict := "ok"
		if len(problems) > 0 {
			verdict = "REGRESSION: " + strings.Join(problems, "; ")
			failed = true
		}
		fmt.Printf("%-20s allocs/event %6.2f (baseline %6.2f)  ns/event %8.0f (baseline %8.0f, %+.1f%%, not gated)  %s\n",
			name, cw.AllocsPerEvent, bw.AllocsPerEvent, cw.NsPerEvent, bw.NsPerEvent, (cw.NsPerEvent/bw.NsPerEvent-1)*100, verdict)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "cepbench: the engine's deterministic figures moved against %s\n", path)
		return 1
	}
	return 0
}
