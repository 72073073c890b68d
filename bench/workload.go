package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"cepshed/internal/citibike"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// rampIn is driven but not scored: the first seconds after the warm-up
// replay show a one-off latency spike and ladder thrash.
const rampIn = 3 * time.Second

// sliceLen divides the scored window: every end-to-end metric is computed
// per slice and the median over slices is reported, so that one host
// hiccup — or the second-long load rejection a hiccup can trip at a 2 ms
// bound — moves one slice and not the run.
const sliceLen = 2 * time.Second

// timeBase lifts generated event times clear of the warm-up replay's
// stream (its last timestamp is a few virtual hours on CitiBike, under a
// second on DS1) plus any query window, so no warm-up partial match can pair
// with a generated event and per-shard time never runs backwards.
const timeBase = event.Time(1e6 * event.Second)

type edgeKind int

const (
	edgeTCP  edgeKind = iota // one NDJSON TCP connection, a write per pacing tick
	edgeHTTP                 // sequential POST /ingest, one batch per pacing tick
)

// scoredQuery is a query whose emitted matches are checked against the
// unshed reference.
type scoredQuery struct {
	id      string // tenant/name as printed in match lines
	machine *nfa.Machine
}

// workload is one traffic mix. Every constant is fixed here and never
// adapted at run time; README.md records how each was calibrated.
type workload struct {
	name string
	why  string

	// Server side.
	dataset    string // -dataset: cost-model training stream and warm-up replay
	warmEvents int    // -events
	// theta is the server's -bound. It covers queue wait and service only,
	// the controller holds the smoothed latency AT it, and the ladder starts
	// refusing input at the door once the smoothed latency passes four
	// times it. The three under-capacity workloads therefore get a theta
	// no host stall reaches: nothing may shed or refuse on them.
	theta time.Duration
	// slo is the end-to-end detection-latency bound recall_at_bound is
	// scored against, the benchmark's measure of the tail. It sits where
	// the workload's latency distribution is flat (a few percent of matches
	// beyond it): scoring at theta itself would sit on the steepest point
	// and read as noise.
	slo     time.Duration
	durable bool // -state-dir: per-query WAL and snapshots
	arbiter bool
	tenants []registry.Tenant
	queries []registry.QuerySpec // registered over the admin API, replacing the dataset's default query

	// Client side.
	edge edgeKind
	tick time.Duration // pacing quantum: events due inside one tick share a write
	rate float64       // events per second, wall clock

	// generate builds n events at the given rate.
	// Event times are relative to the first event; realTime workloads
	// send them as due times, the others as generator virtual time.
	generate func(rate float64, seed int64, n int) event.Stream
	realTime bool

	// scored lists the queries checked against the reference. A non-nil
	// subset restricts the reference to some values of the queries'
	// partition attribute.
	scored func(seed int64) []scoredQuery
	subset *keySubset

	// tracePrefix is how many leading events the in-process traced pass
	// replays.
	tracePrefix int
}

func (w *workload) queryIDs() []string {
	if len(w.queries) == 0 {
		return []string{"default/main"}
	}
	ids := make([]string, len(w.queries))
	for i, q := range w.queries {
		ids[i] = q.ID()
	}
	return ids
}

func ds1(idRange int) func(rate float64, seed int64, n int) event.Stream {
	return func(rate float64, seed int64, n int) event.Stream {
		return gen.DS1(gen.DS1Config{
			Events:       n,
			InterArrival: event.Time(float64(event.Second) / rate),
			IDRange:      idRange,
			Seed:         seed,
		})
	}
}

// bursts reshapes a steady stream: of every period, the last length
// arrives at factor times the rate of the rest, the mean rate unchanged.
type bursts struct {
	period, length time.Duration
	factor         float64
}

// warp maps an arrival time of the steady stream to its bursty time.
func (b bursts) warp(t event.Time) event.Time {
	period, length := float64(b.period), float64(b.length)
	quiet := period - length
	// In steady time the quiet stretch takes its share of the period's
	// events: quiet at rate 1 against length at rate factor.
	steadyQuiet := period * quiet / (quiet + b.factor*length)
	whole, frac := math.Modf(float64(t) / period)
	u := frac * period
	if u < steadyQuiet {
		u = u / steadyQuiet * quiet
	} else {
		u = quiet + (u-steadyQuiet)/(period-steadyQuiet)*length
	}
	return event.Time(whole*period + u)
}

// burstyDS1 is ds1 with its arrival times warped into bursts. Types, IDs
// and values stay independent draws, so only the density changes.
func burstyDS1(idRange int, b bursts) func(rate float64, seed int64, n int) event.Stream {
	steady := ds1(idRange)
	return func(rate float64, seed int64, n int) event.Stream {
		events := steady(rate, seed, n)
		for _, e := range events {
			e.Time = b.warp(e.Time)
		}
		return events
	}
}

// citiBike generates trips at a steady rate. The generator's default
// burst (6x rate over a fifth of the stream) is switched off: HotPaths'
// cost is combinatorial in the chained trips a five-minute window holds,
// so a burst makes per-event cost — and with it every latency and CPU
// figure — swing severalfold between seeds, which no bound could judge.
func citiBike(_ float64, seed int64, n int) event.Stream {
	noBurst := []citibike.Spike{{StartFrac: 1, EndFrac: 1, RateMul: 1}}
	return citibike.Generate(citibike.Config{Trips: n, Seed: seed, Spikes: noBurst})
}

func defaultQuery(q *query.Query) func(int64) []scoredQuery {
	m := nfa.MustCompile(q)
	return func(int64) []scoredQuery { return []scoredQuery{{id: "default/main", machine: m}} }
}

// multiQueryText is the Q1 template the multi-query workload varies:
// window in milliseconds and an offset on the V predicate.
func multiQueryText(windowMs, shift int) string {
	return fmt.Sprintf("PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V + %d WITHIN %dms",
		shift, windowMs)
}

func multiQuerySpecs() []registry.QuerySpec {
	var specs []registry.QuerySpec
	for i := 0; i < 32; i++ {
		specs = append(specs, registry.QuerySpec{
			Tenant: "t" + strconv.Itoa(i%2),
			Name:   "q" + strconv.Itoa(i),
			Query:  multiQueryText(1+i%4, i/4),
		})
	}
	return specs
}

var workloads = []*workload{
	{
		name: "q1-steady",
		why:  "DS1/Q1 over one TCP connection at 32k ev/s, two thirds of capacity: the no-shedding baseline, on which shedding changes must show no change",

		dataset: "ds1", warmEvents: 20000, theta: 25 * time.Millisecond, slo: 5 * time.Millisecond,
		edge: edgeTCP, tick: 200 * time.Microsecond, rate: 32000,
		generate: ds1(10), realTime: true,
		scored:      defaultQuery(query.Q1("8ms")),
		subset:      &keySubset{attr: "ID", lo: 1, n: 10, pick: 3, rotate: 100 * time.Millisecond, window: 8 * time.Millisecond},
		tracePrefix: 100000,
	},
	{
		name: "q1-overload",
		why:  "same stream family, 38k ev/s on average with a fifth of every second at twice the rate of the rest: transient overload, the only workload where rho_I/rho_S, the planner and the ladder do the work",

		dataset: "ds1", warmEvents: 20000, theta: 10 * time.Millisecond, slo: 60 * time.Millisecond,
		edge: edgeTCP, tick: 200 * time.Microsecond, rate: 38000,
		generate: burstyDS1(10, bursts{period: time.Second, length: 200 * time.Millisecond, factor: 2}), realTime: true,
		scored:      defaultQuery(query.Q1("8ms")),
		subset:      &keySubset{attr: "ID", lo: 1, n: 10, pick: 1, rotate: 100 * time.Millisecond, window: 8 * time.Millisecond},
		tracePrefix: 60000,
	},
	{
		name: "hotpaths-kleene",
		why:  "CitiBike/HotPaths Kleene{2,5} at 12k ev/s, a third of capacity: the same engine used differently (branching, COW clones, 4 allocations per event against 0.8)",

		dataset: "citibike", warmEvents: 4000, theta: 25 * time.Millisecond, slo: 10 * time.Millisecond,
		edge: edgeTCP, tick: 200 * time.Microsecond, rate: 12000,
		generate:    citiBike,
		scored:      defaultQuery(query.HotPaths("5 min", 2, 5)),
		subset:      &keySubset{attr: "bike", lo: 0, n: 150, pick: 30},
		tracePrefix: 20000,
	},
	{
		name: "multiquery-wal",
		why:  "32 cheap Q1 variants in 2 tenants over one stream, HTTP batches, per-query WAL, arbiter on: serving-stack-bound, the inverse of q1-steady",

		dataset: "ds1", warmEvents: 4000, theta: 25 * time.Millisecond, slo: 10 * time.Millisecond,
		durable: true, arbiter: true,
		tenants: []registry.Tenant{{Name: "t0", Priority: 1}, {Name: "t1", Priority: 1}},
		queries: multiQuerySpecs(),
		edge:    edgeHTTP, tick: 5 * time.Millisecond, rate: 5000,
		generate: ds1(5), realTime: true,
		scored: func(seed int64) []scoredQuery {
			specs := multiQuerySpecs()
			rng := rand.New(rand.NewSource(seed))
			var out []scoredQuery
			for _, i := range rng.Perm(len(specs))[:4] {
				out = append(out, scoredQuery{id: specs[i].ID(), machine: nfa.MustCompile(query.MustParse(specs[i].Query))})
			}
			return out
		},
		tracePrefix: 40000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is one generated stream, ready to send: event i is written when
// due[i] has elapsed since the drive began and the server stamps it
// sequence number i.
type input struct {
	events  event.Stream
	due     []time.Duration
	lines   []byte // NDJSON, one line per event
	lineEnd []int  // lines[lineEnd[i-1]:lineEnd[i]] is event i
	// marks[k] is the first event of scored slice k, the first one due
	// rampIn + k*sliceLen into the drive; the last entry is len(events).
	marks []int
}

// build generates the stream for a run that scores seconds after the
// ramp-in.
func (w *workload) build(seed int64, seconds int) *input {
	n := int(w.rate * (rampIn.Seconds() + float64(seconds)))
	in := &input{events: w.generate(w.rate, seed, n)}
	in.due = make([]time.Duration, n)
	in.lineEnd = make([]int, n)
	in.lines = make([]byte, 0, n*64)
	for i, e := range in.events {
		if w.realTime {
			in.due[i] = time.Duration(e.Time)
		} else {
			in.due[i] = time.Duration(float64(i) / w.rate * float64(time.Second))
		}
		if in.due[i] >= rampIn+time.Duration(len(in.marks))*sliceLen && len(in.marks) < seconds*int(time.Second)/int(sliceLen) {
			in.marks = append(in.marks, i)
		}
		e.Time += timeBase
		in.lines = append(append(in.lines, runtime.EncodeEvent(e)...), '\n')
		in.lineEnd[i] = len(in.lines)
	}
	in.marks = append(in.marks, n)
	return in
}

// slices is the number of scored slices.
func (in *input) slices() int { return len(in.marks) - 1 }

// sliceOf returns the scored slice event i belongs to, or -1 for the
// ramp-in.
func (in *input) sliceOf(i int) int {
	return sort.SearchInts(in.marks, i+1) - 1
}

func (in *input) line(i, j int) []byte {
	start := 0
	if i > 0 {
		start = in.lineEnd[i-1]
	}
	return in.lines[start:in.lineEnd[j-1]]
}
