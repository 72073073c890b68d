package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/registry"
)

// setupReps is how many times a run spawns the server to time set-up;
// the median is reported and the last instance serves the drive.
const setupReps = 3

// env is what every run of one harness process shares.
type env struct {
	root      string // the checkout
	serverBin string
	tmp       string // parent of every state dir
	outDir    string // trace files
}

// newEnv builds the server and the scratch directory one harness process
// uses.
func newEnv(ctx context.Context) (*env, func(), error) {
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	bin, err := buildServer(ctx, root)
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp("", "cepshed-bench-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { _ = os.RemoveAll(tmp) } // best effort at exit
	return &env{root: root, serverBin: bin, tmp: tmp, outDir: filepath.Join(root, "bench", "out")}, cleanup, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	attempted int  // (event, query) deliveries the drive attempted, ramp-in included
	failed    int  // of those, the ones the server never accounted for
	void      bool // the generator fell behind its own schedule
	problems  []string
	notes     []string
	metrics   map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// window is one reading of the server's counters.
type window struct {
	stats stats
	usage procUsage
	at    time.Duration // harness clock when the reading completed
}

// readWindow reads the counters now, or — when wantEdge is nonzero —
// once the server has taken in that many edge dispositions and drained
// its queues.
func readWindow(ctx context.Context, s *server, wantEdge uint64) (window, error) {
	var w window
	var err error
	if wantEdge > 0 {
		w.stats, err = s.quiesce(ctx, wantEdge)
	} else {
		w.stats, err = s.scrape(ctx)
	}
	if err != nil {
		return w, err
	}
	w.usage, err = s.usage()
	w.at = now()
	return w, err
}

// drive is everything one pass through the real server measured.
type drive struct {
	setups     []time.Duration
	startStats stats    // quiescent, before the first event
	windows    []window // windows[k] opens scored slice k; the last closes the drive, drained
	pace       paceStats
	scores     []sliceScore
	latencies  [][]time.Duration // per latency window
	problems   []string
	final      registry.Snapshot
	goroutines int
	peakLevel  int // worst degradation level among the slice readings
	attempted  int // (event, query) deliveries written, unsubscribed events counted once
	lost       int // of those, in no counter of the server's at drain
}

// runServer spawns the server reps times (timing set-up each time),
// drives the generated stream through the last instance in open loop,
// and reads every counter the scored slices need.
func runServer(ctx context.Context, ev *env, w *workload, in *input, refs references, reps int) (*drive, error) {
	d := &drive{}
	var srv *server
	for i := 0; i < reps; i++ {
		s, setup, err := startServer(ctx, ev.serverBin, w, ev.tmp)
		if err != nil {
			return nil, err
		}
		d.setups = append(d.setups, setup)
		if i < reps-1 {
			s.kill()
			continue
		}
		srv = s
	}
	defer srv.kill()

	var err error
	if d.startStats, err = srv.scrape(ctx); err != nil {
		return nil, err
	}
	var out sender
	if w.edge == edgeTCP {
		if out, err = dialTCP(srv.tcpAddr); err != nil {
			return nil, err
		}
	} else {
		out = &httpSender{client: srv.client, url: srv.base + "/ingest"}
	}
	defer out.close()

	// One match line per reference match is the most an unshed run emits;
	// sizing for it keeps the collector from growing its slice mid-drive.
	expect := 0
	for _, ref := range refs.byQuery {
		expect += len(ref)
	}
	srv.matches.arm(1024 + int(float64(expect)/refs.share))

	// Slice boundaries are read off the pacing thread; readings are a
	// slice apart, so at most one is in flight.
	type reading struct {
		k   int
		w   window
		err error
	}
	slices := in.slices()
	d.windows = make([]window, slices+1)
	readings := make(chan reading, slices) // one send per boundary: readers never block on it
	mark := func(k int) {
		go func() {
			mw, err := readWindow(ctx, srv, 0)
			readings <- reading{k, mw, err}
		}()
	}

	// The harness shares two cores with the server: keep its garbage
	// collector off them for the length of the drive.
	gcPercent := debug.SetGCPercent(-1)
	start := now()
	d.pace, err = pace(ctx, in, out, w.tick, start, mark)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, err
	}
	for i := 0; i < slices; i++ {
		r := <-readings
		if r.err != nil {
			return nil, r.err
		}
		d.windows[r.k] = r.w
		d.peakLevel = max(d.peakLevel, r.w.stats.MaxDegradation)
	}
	pairs, unrouted := countPairs(fanout(d.startStats), in.events)
	if d.windows[slices], err = readWindow(ctx, srv, edgeCount(d.startStats)+pairs+unrouted); err != nil {
		return nil, err
	}
	if d.goroutines, err = srv.goroutines(ctx); err != nil {
		return nil, err
	}
	if err := out.close(); err != nil {
		return nil, err
	}
	if d.final, err = srv.stop(); err != nil {
		return nil, err
	}
	recs, bad := srv.matches.records()
	d.scores, d.latencies, d.problems = scoreMatches(recs, refs.byQuery, in, start, w.slo, refs.inScope)
	if bad > 0 {
		d.problems = append(d.problems, fmt.Sprintf("%d match lines did not parse", bad))
	}
	lost, problems := conservation(in, d)
	d.attempted, d.lost = int(pairs+unrouted), int(lost)
	d.problems = append(d.problems, problems...)
	return d, nil
}

// references is the unshed truth of one run: per collector query index
// (nil: timed, not checked), and the key subset it was restricted to.
type references struct {
	byQuery []reference
	inScope func(i int) bool // by completing event; nil: every match is in scope
	share   float64          // of the stream's events, how many fed the references
}

// prepare generates the run's stream and its references.
func prepare(w *workload, seed int64, seconds int) (*input, references) {
	in := w.build(seed, seconds)
	refs := references{share: 1}
	events := in.events
	if w.subset != nil {
		var feeds func(i int) bool
		feeds, refs.inScope = w.subset.scope(seed, in)
		events = restrict(events, feeds)
		refs.share = float64(len(events)) / float64(len(in.events))
	}
	index := make(map[string]int)
	for i, id := range w.queryIDs() {
		index[id] = i
	}
	refs.byQuery = make([]reference, len(index))
	for _, sq := range w.scored(seed) {
		refs.byQuery[index[sq.id]] = buildReference(sq, events)
	}
	return in, refs
}

// fanout maps an event type to the number of registered queries whose
// pattern names it, as the server reports them. The server counts (event,
// query) pairs; the generator counts events.
func fanout(st stats) map[string]int {
	f := map[string]int{}
	for _, q := range st.Queries {
		for _, t := range q.Types {
			f[t]++
		}
	}
	return f
}

// countPairs returns how many (event, query) pairs the events fan out to
// and how many events no query subscribes to.
func countPairs(f map[string]int, events event.Stream) (pairs, unrouted uint64) {
	for _, e := range events {
		if n := f[e.Type]; n > 0 {
			pairs += uint64(n)
		} else {
			unrouted++
		}
	}
	return pairs, unrouted
}

// maxLateness is how far behind its own schedule the generator may run,
// at p99, before a run is void: latency is timed from due times, so a late
// generator would be charged to the server. It is well under the tightest
// SLO; an undisturbed run stays under a quarter of it.
const maxLateness = 2 * time.Millisecond

// endToEnd turns a drive into the seven end-to-end metrics. The counter
// metrics are computed per scored slice and the median latency per latency
// window; medians over slices and windows are reported.
func endToEnd(res *result, w *workload, in *input, d *drive) error {
	late := sortedCopy(d.pace.lateness)
	lateP99 := percentile(late, 99)
	res.notes = append(res.notes, fmt.Sprintf("generator: open loop, %d writes, lateness p50 %.0f us p99 %.0f us max %.0f us (scheduled wake-up or return of the previous send -> write start)",
		len(late), us(percentile(late, 50)), us(lateP99), us(late[len(late)-1])))
	res.void = lateP99 > maxLateness
	res.attempted, res.failed = d.attempted, d.lost

	f := fanout(d.startStats)
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	matches, thin := 0, 0
	for _, win := range d.latencies {
		matches += len(win)
		if len(win) < minWindowSamples {
			thin++
			continue
		}
		add("detect_p50_ms", ms(percentile(sortedCopy(win), 50)))
	}
	if len(d.latencies)-thin < minWindows {
		return fmt.Errorf("%d of %d latency windows hold under %d matches (%d in all): too few for a median",
			thin, len(d.latencies), minWindowSamples, matches)
	}
	var pooled sliceScore
	var refused uint64
	for k, sc := range d.scores {
		pooled.truth += sc.truth
		pooled.found += sc.found
		pooled.foundInSLO += sc.foundInSLO
		lo, hi := in.marks[k], in.marks[k+1]
		a, b := d.windows[k], d.windows[k+1]
		sent := hi - lo
		seconds := (in.due[hi-1] - in.due[lo]).Seconds()
		expectPairs, _ := countPairs(f, in.events[lo:hi])
		// Refusals are counted when a pair is offered, so a boundary
		// reading misses only what still sat in the socket buffer.
		turnedAway := refusedPairs(b.stats) - refusedPairs(a.stats)
		refused += turnedAway

		recall, atBound := 1.0, 1.0
		if sc.truth > 0 {
			recall = float64(sc.found) / float64(sc.truth)
			atBound = float64(sc.foundInSLO) / float64(sc.truth)
		}
		add("recall", recall)
		add("recall_at_bound", atBound)
		add("goodput_eps", float64(b.stats.EventsProcessed-a.stats.EventsProcessed)/seconds)
		add("delivered_frac", 1-float64(turnedAway)/float64(expectPairs))
		add("cpu_us_per_event", us(b.usage.cpu-a.usage.cpu)/float64(sent))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d scored slices of %v; median detect latency over %d matches in %d windows of %v (%d too thin to use)",
			len(d.scores), sliceLen, matches, len(d.latencies), latWindow, thin),
		fmt.Sprintf("recall over %d reference matches, bound %v; over the whole scored window recall is %.4f and recall_at_bound %.4f",
			pooled.truth, w.slo, ratio(float64(pooled.found), float64(pooled.truth)), ratio(float64(pooled.foundInSLO), float64(pooled.truth))),
		fmt.Sprintf("server turned away %d (event, query) pairs in the scored window (ladder door rejections, arbiter drops): a decision of the server's, paid in recall, recall_at_bound and delivered_frac, not a failed operation", refused))
	units := map[string]string{"detect_p50_ms": "ms", "recall": "ratio", "recall_at_bound": "ratio",
		"goodput_eps": "1/s", "delivered_frac": "ratio", "cpu_us_per_event": "us"}
	for _, name := range sortKeys(per) {
		res.set(name, median(per[name]), units[name])
		if name != "detect_p50_ms" {
			res.notes = append(res.notes, fmt.Sprintf("%s per slice: %.4g", name, per[name]))
		}
	}
	setups := make([]float64, len(d.setups))
	for i, s := range d.setups {
		setups[i] = s.Seconds()
	}
	res.set("setup_s", median(setups), "s")
	return nil
}

// conservation checks that every event written ended in exactly one
// counted disposition at the edge and every accepted pair in one inside
// the runtimes, over the whole drive (both ends quiescent, so exact);
// that an unshed run lost no match; and that durability never failed.
func conservation(in *input, d *drive) (lost uint64, problems []string) {
	a, b := d.startStats, d.windows[len(d.windows)-1].stats
	sentPairs, sentUnrouted := countPairs(fanout(a), in.events)
	gotPairs := (b.EventsIn - a.EventsIn) + (b.AdmissionRejected - a.AdmissionRejected) + (b.ImposedDrops - a.ImposedDrops)
	if gotPairs != sentPairs {
		lost += absDiff(sentPairs, gotPairs)
		problems = append(problems, fmt.Sprintf("edge conservation: sent %d (event, query) pairs, server counts %d (events_in + rejected + arbiter-shed)",
			sentPairs, gotPairs))
	}
	if got := b.Unrouted - a.Unrouted; got != sentUnrouted {
		lost += absDiff(sentUnrouted, got)
		problems = append(problems, fmt.Sprintf("edge conservation: sent %d events no query subscribes to, server counts %d unrouted", sentUnrouted, got))
	}
	if b.BadLines != a.BadLines {
		problems = append(problems, fmt.Sprintf("server rejected %d lines as malformed", b.BadLines-a.BadLines))
	}
	for _, q := range d.final.Queries {
		r := q.Runtime
		if r.EventsIn != r.EventsShed+r.EventsProcessed+r.ShardQuarantined {
			problems = append(problems, fmt.Sprintf("%s: events_in %d != shed %d + processed %d + quarantined %d at drain",
				q.Spec.ID(), r.EventsIn, r.EventsShed, r.EventsProcessed, r.ShardQuarantined))
		}
	}
	missing := 0
	for _, sc := range d.scores {
		missing += sc.truth - sc.found
	}
	// The warm-up replay sheds too, so "nothing shed" is judged on the
	// drive's own deltas.
	shed := (b.EventsShed - a.EventsShed) + (b.ImposedDrops - a.ImposedDrops) + (b.AdmissionRejected - a.AdmissionRejected) +
		(droppedPMs(b) - droppedPMs(a))
	if shed == 0 && missing != 0 {
		problems = append(problems, fmt.Sprintf("nothing was shed or rejected, yet %d reference matches are missing", missing))
	}
	if d.final.WALErrors > 0 || d.final.Restarts > 0 {
		problems = append(problems, fmt.Sprintf("wal_errors=%d restarts=%d", d.final.WALErrors, d.final.Restarts))
	}
	return lost, problems
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// refusedPairs is every (event, query) pair the server turned away
// instead of processing or strategy-shedding it: ladder door rejections
// and arbiter-imposed drops. Strategy shedding is not refusal; it is paid
// in recall.
func refusedPairs(st stats) uint64 { return st.AdmissionRejected + st.ImposedDrops }

func droppedPMs(st stats) uint64 {
	var n uint64
	for _, q := range st.Queries {
		n += q.Runtime.DroppedPMs
	}
	return n
}
