package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {0, 1}, {99.9, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64(nil), 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Ten samples must lie beyond the percentile.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{999, 99, false}, {1000, 99, true}, {199, 95, false}, {200, 95, true}, {20, 50, true}, {19, 50, false}} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4);
// the expected values below were computed with it.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10.5, 11, 12.25}, 10.5, 12.25},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func smallWorkload() *workload {
	return &workload{
		name: "test", rate: 1000, tick: 500 * time.Microsecond,
		generate: ds1(3), realTime: true,
		scored: defaultQuery(query.Q1("50ms")),
		slo:    20 * time.Millisecond,
	}
}

// The server stamps sequence numbers in arrival order on one connection,
// so seq == generator index: the i-th line must decode to the i-th event,
// due times must not decrease, and every index must map to its slice.
func TestSeqToDueMapping(t *testing.T) {
	w := smallWorkload()
	in := w.build(7, 4)
	n := len(in.events)
	if want := int(w.rate * (rampIn.Seconds() + 4)); n != want {
		t.Fatalf("built %d events, want %d", n, want)
	}
	if got := in.slices(); got != 2 {
		t.Fatalf("4 scored seconds give %d slices, want 2", got)
	}
	dec := runtime.NewLineDecoder(bytes.NewReader(in.line(0, n)), 0)
	for i := 0; i < n; i++ {
		e, hasTime, err := dec.Next()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := in.events[i]
		if !hasTime || e.Time != want.Time || e.Type != want.Type || e.Int("ID") != want.Int("ID") || e.Int("V") != want.Int("V") {
			t.Fatalf("line %d decodes to %v, want %v", i, e, want)
		}
		if e.Time < timeBase {
			t.Fatalf("event %d time %v is below the warm-up guard %v", i, e.Time, timeBase)
		}
		if i > 0 && in.due[i] < in.due[i-1] {
			t.Fatalf("due times decrease at %d", i)
		}
		if uint64(i) != want.Seq {
			t.Fatalf("event %d carries seq %d", i, want.Seq)
		}
	}
	if got := string(in.line(5, 6)); got != string(runtime.EncodeEvent(in.events[5]))+"\n" {
		t.Errorf("line(5,6) = %q", got)
	}
	for k := 0; k < in.slices(); k++ {
		lo, hi := in.marks[k], in.marks[k+1]
		if in.due[lo] < rampIn+time.Duration(k)*sliceLen || (lo > 0 && in.due[lo-1] >= rampIn+time.Duration(k)*sliceLen) {
			t.Errorf("mark %d = event %d (due %v) is not the first event of its slice", k, lo, in.due[lo])
		}
		for _, i := range []int{lo, (lo + hi) / 2, hi - 1} {
			if got := in.sliceOf(i); got != k {
				t.Errorf("sliceOf(%d) = %d, want %d", i, got, k)
			}
		}
	}
	if got := in.sliceOf(in.marks[0] - 1); got != -1 {
		t.Errorf("the last ramp-in event is in slice %d, want -1", got)
	}
}

// matchLine renders a match exactly as cepserved -print-matches does.
func matchLine(tenant, name string, shard int, m engine.Match) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"tenant":%q,"query":%q,"match":`, tenant, name)
	b.Write(runtime.EncodeMatch(shard, m))
	b.WriteString("}\n")
	return b.Bytes()
}

func TestParseMatchLineAgainstEncodeMatch(t *testing.T) {
	queries := map[string]uint16{"default/main": 0, "t1/q17": 5}
	m := engine.Match{Detected: 12345, Events: []*event.Event{
		{Type: "A", Seq: 3}, {Type: "B", Seq: 90}, {Type: "C", Seq: 4000000},
	}}
	rec, ok := parseMatchLine(matchLine("t1", "q17", 1, m), queries)
	if !ok {
		t.Fatal("did not parse")
	}
	if rec.query != 5 || rec.lastSeq != 4000000 || rec.key != hashKey([]byte(m.Key())) {
		t.Errorf("parsed %+v; want query 5, lastSeq 4000000, key hash of %q", rec, m.Key())
	}
	single := engine.Match{Events: []*event.Event{{Type: "A", Seq: 7}}}
	if rec, ok := parseMatchLine(matchLine("default", "main", 0, single), queries); !ok || rec.lastSeq != 7 || rec.query != 0 {
		t.Errorf("single-event match parsed as %+v, %v", rec, ok)
	}
	for _, bad := range []string{
		`{"tenant":"nobody","query":"main","match":{"shard":0,"detected":1,"key":"1,2","events":[]}}`,
		`{"tenant":"default","query":"main","match":{"shard":0,"detected":1,"key":"","events":[]}}`,
		`{"tenant":"default","query":"main","match":{"shard":0,"detected":1,"key":"1,x","events":[]}}`,
		`{"tenant":"default","query":"main"}`,
	} {
		if _, ok := parseMatchLine([]byte(bad), queries); ok {
			t.Errorf("parsed malformed line %s", bad)
		}
	}
}

func TestCollectorSplitsMatchesFromFinalSnapshot(t *testing.T) {
	m := engine.Match{Events: []*event.Event{{Type: "A", Seq: 1}, {Type: "B", Seq: 2}}}
	warm := matchLine("default", "main", 0, m)
	live := matchLine("default", "main", 1, engine.Match{Events: []*event.Event{{Type: "A", Seq: 8}, {Type: "B", Seq: 9}}})
	final := "{\n  \"queries\": [],\n  \"events_in\": 42\n}\n"

	c := newCollector([]string{"default/main"})
	c.run(bytes.NewReader(warm)) // before arming: warm-up replay output, dropped
	c.arm(4)
	c.run(bytes.NewReader(append(live, final...)))

	recs, bad := c.records()
	if bad != 0 || len(recs) != 1 || recs[0].lastSeq != 9 {
		t.Fatalf("records = %+v (bad %d), want the one armed match with lastSeq 9", recs, bad)
	}
	var snap struct {
		EventsIn int `json:"events_in"`
	}
	if err := json.Unmarshal(c.trailer(), &snap); err != nil || snap.EventsIn != 42 {
		t.Errorf("trailer %q does not decode to the final snapshot: %v", c.trailer(), err)
	}
}

// The reference of a key subset, fixed or rotating, must be the full
// reference restricted to the matches the subset checks — what makes
// scoring a subset exact.
func TestSubsetReferenceEqualsRestrictedFullReference(t *testing.T) {
	stream := gen.DS1(gen.DS1Config{Events: 6000, Seed: 3, InterArrival: 20 * event.Microsecond, IDRange: 6})
	in := &input{events: stream, due: make([]time.Duration, len(stream))}
	for i, e := range stream {
		in.due[i] = time.Duration(e.Time)
	}
	sq := scoredQuery{id: "default/main", machine: nfa.MustCompile(query.Q1("2ms"))}
	full := buildReference(sq, stream)
	for name, ks := range map[string]*keySubset{
		"fixed":    {attr: "ID", lo: 1, n: 6, pick: 2},
		"rotating": {attr: "ID", lo: 1, n: 6, pick: 2, rotate: 5 * time.Millisecond, window: 2 * time.Millisecond},
	} {
		feeds, checked := ks.scope(11, in)
		sub := buildReference(sq, restrict(stream, feeds))
		for key, last := range sub {
			if !checked(int(last)) {
				delete(sub, key) // completed during a lead-in
			}
		}
		want := reference{}
		perValue := map[int64]int{}
		for key, last := range full {
			if checked(int(last)) {
				want[key] = last
				perValue[stream[last].Int("ID")]++
			}
		}
		if len(sub) == 0 || len(sub) == len(full) {
			t.Fatalf("%s: degenerate test: subset has %d of %d matches", name, len(sub), len(full))
		}
		if !reflect.DeepEqual(sub, want) {
			t.Errorf("%s: subset reference has %d matches, restricted full reference %d", name, len(sub), len(want))
		}
		if wantValues := map[string]int{"fixed": 2, "rotating": 6}[name]; len(perValue) != wantValues {
			t.Errorf("%s: checked matches of %d values, want %d", name, len(perValue), wantValues)
		}
	}
	ks := &keySubset{attr: "ID", lo: 1, n: 6, pick: 2}
	if !reflect.DeepEqual(ks.choose(11), ks.choose(11)) {
		t.Error("the same seed chose different keys")
	}
}

func TestScoreMatchesFlagsDuplicatesAndInventedMatches(t *testing.T) {
	w := smallWorkload()
	in := w.build(5, 4)
	ref := buildReference(w.scored(0)[0], in.events)
	if len(ref) < 10 {
		t.Fatalf("test stream has only %d matches", len(ref))
	}
	start := 10 * time.Second
	var recs []matchRec
	perSlice := make([]int, in.slices())
	late := 0
	for key, last := range ref {
		lat := time.Millisecond
		if k := in.sliceOf(int(last)); k >= 0 {
			perSlice[k]++
			if perSlice[k]%5 == 0 { // every fifth scored match misses the SLO
				lat = w.slo + time.Millisecond
				late++
			}
		}
		recs = append(recs, matchRec{recv: start + in.due[last] + lat, key: key, lastSeq: last})
	}
	scores, windows, problems := scoreMatches(recs, []reference{ref}, in, start, w.slo, nil)
	if len(problems) != 0 {
		t.Fatalf("clean run reported %v", problems)
	}
	inWindows := 0
	for _, win := range windows {
		inWindows += len(win)
	}
	found, inSLO := 0, 0
	for k, sc := range scores {
		if sc.truth != perSlice[k] || sc.found != perSlice[k] {
			t.Errorf("slice %d: truth %d found %d, want both %d", k, sc.truth, sc.found, perSlice[k])
		}
		found += sc.found
		inSLO += sc.foundInSLO
	}
	if inWindows != found || inSLO != found-late {
		t.Errorf("windows hold %d latencies for %d matches; %d in SLO, want %d", inWindows, found, inSLO, found-late)
	}

	bad := append(slices.Clone(recs), recs[0], matchRec{recv: start, key: 12345, lastSeq: recs[1].lastSeq},
		matchRec{recv: start, key: 999, lastSeq: uint32(len(in.due) + 3)})
	_, _, problems = scoreMatches(bad, []reference{ref}, in, start, w.slo, nil)
	got := strings.Join(problems, "; ")
	for _, want := range []string{"1 duplicate", "1 emitted matches are not in the reference", "1 match lines name a seq"} {
		if !strings.Contains(got, want) {
			t.Errorf("problems %q lack %q", got, want)
		}
	}
	// Out-of-scope matches are timed but not checked.
	_, _, problems = scoreMatches(bad[:len(bad)-1], []reference{ref}, in, start, w.slo, func(int) bool { return false })
	if got := strings.Join(problems, "; "); strings.Contains(got, "not in the reference") {
		t.Errorf("out-of-scope match was checked: %q", got)
	}
}

func queryStatus(tenant, name string, types []string) registry.InstanceStatus {
	return registry.InstanceStatus{Spec: registry.QuerySpec{Tenant: tenant, Name: name}, Types: types}
}

// fakeSender records what the pacer wrote and when.
type fakeSender struct {
	sizes []int
	at    []time.Duration
	block time.Duration // extra time inside the first send after the ramp-in
	marks *[]int
}

func (f *fakeSender) send(b []byte) error {
	if f.block > 0 && len(*f.marks) > 0 {
		time.Sleep(f.block)
		f.block = 0
	}
	f.sizes = append(f.sizes, bytes.Count(b, []byte("\n")))
	f.at = append(f.at, now())
	return nil
}
func (f *fakeSender) close() error { return nil }

func TestPaceLatenessAccounting(t *testing.T) {
	w := smallWorkload()
	in := w.build(9, 2)
	// Compress the schedule 10x so the test takes half a second.
	for i := range in.due {
		in.due[i] /= 10
	}
	var marks []int
	var markedAt []int // events written before each mark
	out := &fakeSender{block: 30 * time.Millisecond, marks: &marks}
	sent := func() int {
		n := 0
		for _, s := range out.sizes {
			n += s
		}
		return n
	}
	start := now()
	ps, err := pace(context.Background(), in, out, w.tick, start, func(k int) {
		marks = append(marks, k)
		markedAt = append(markedAt, sent())
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sent(); got != len(in.events) {
		t.Fatalf("wrote %d events, want %d", got, len(in.events))
	}
	// Every slice boundary fell on a write boundary, in order.
	if !reflect.DeepEqual(marks, []int{0}) || markedAt[0] != in.marks[0] {
		t.Fatalf("marks %v fired after %v events; want mark 0 after %d", marks, markedAt, in.marks[0])
	}
	// Open loop: no event left before it was due.
	i := 0
	for wi, size := range out.sizes {
		last := i + size - 1
		if out.at[wi]-start < in.due[last] {
			t.Fatalf("write %d sent event %d at %v, before it was due at %v", wi, last, out.at[wi]-start, in.due[last])
		}
		i += size
	}
	// Lateness is kept for scored writes only and is never negative. The
	// stalled send shows up in the send-time record; the write that had to
	// wait behind it is not late, because the loop started it as soon as
	// the stalled send returned.
	scoredWrites := 0
	i = 0
	for _, size := range out.sizes {
		if i >= in.marks[0] {
			scoredWrites++
		}
		i += size
	}
	if len(ps.lateness) != scoredWrites || len(ps.sendTimes) != scoredWrites {
		t.Fatalf("%d lateness and %d send-time samples for %d scored writes", len(ps.lateness), len(ps.sendTimes), scoredWrites)
	}
	if slices.Min(ps.lateness) < 0 {
		t.Errorf("negative lateness %v", slices.Min(ps.lateness))
	}
	if slices.Max(ps.sendTimes) < 30*time.Millisecond {
		t.Errorf("longest send %v, want the 30ms stall", slices.Max(ps.sendTimes))
	}
	if slices.Max(ps.lateness) > 20*time.Millisecond {
		t.Errorf("worst lateness %v: the 30ms the receiver stalled for was charged to the loop", slices.Max(ps.lateness))
	}
	if p50 := percentile(sortedCopy(ps.lateness), 50); p50 > 5*time.Millisecond {
		t.Errorf("median lateness %v on an idle loop", p50)
	}
}

// Bursts reshape arrival times without changing the mean rate: every
// period still holds a period's worth of steady time, and the burst's share
// of the events is factor times its share of the period, renormalised.
func TestBurstsKeepTheMeanRate(t *testing.T) {
	b := bursts{period: time.Second, length: 200 * time.Millisecond, factor: 2}
	prev := event.Time(-1)
	inBurst, n := 0, 0
	for steady := event.Time(0); steady < 3*event.Second; steady += 10 * event.Microsecond {
		at := b.warp(steady)
		if at < prev {
			t.Fatalf("warp(%v) = %v runs backwards from %v", steady, at, prev)
		}
		prev = at
		if at%event.Second >= 800*event.Millisecond {
			inBurst++
		}
		n++
	}
	if got := b.warp(2 * event.Second); got != 2*event.Second {
		t.Errorf("warp(2s) = %v: periods drifted", got)
	}
	// quiet 0.8 s at rate r, burst 0.2 s at 2r: the burst holds 0.4/1.2.
	if share := float64(inBurst) / float64(n); math.Abs(share-1.0/3) > 0.001 {
		t.Errorf("burst holds %.4f of the events, want 1/3", share)
	}
}

func TestProcParsers(t *testing.T) {
	if ns, err := parseSchedstat([]byte("260783170 26449718 613\n")); err != nil || ns != 260783170 {
		t.Errorf("parseSchedstat = %v, %v", ns, err)
	}
	if _, err := parseSchedstat(nil); err == nil {
		t.Error("empty schedstat parsed")
	}
	status := "Name:\tcepserved\nVmPeak:\t  999 kB\nVmHWM:\t  294912 kB\nVmRSS:\t 1000 kB\n"
	if mb, err := parseVmHWM([]byte(status)); err != nil || mb != 288 {
		t.Errorf("parseVmHWM = %v, %v; want 288", mb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestConservationNamesEveryBreak(t *testing.T) {
	w := smallWorkload()
	in := w.build(1, 2)
	var a, b stats
	a.Queries = append(a.Queries, queryStatus("default", "main", []string{"A", "B", "C"}))
	pairs, unrouted := countPairs(fanout(a), in.events)
	if pairs == 0 || unrouted == 0 || int(pairs+unrouted) != len(in.events) {
		t.Fatalf("countPairs = %d pairs + %d unrouted of %d events", pairs, unrouted, len(in.events))
	}
	b.Queries = a.Queries
	b.EventsIn, b.Unrouted = pairs, unrouted
	d := &drive{startStats: a, windows: []window{{stats: a}, {stats: b}}, scores: []sliceScore{{truth: 5, found: 5}}}
	if lost, got := conservation(in, d); lost != 0 || len(got) != 0 {
		t.Fatalf("balanced counters reported %d lost, %v", lost, got)
	}
	b.EventsIn--
	b.Unrouted++
	b.BadLines = 2
	d.windows[1].stats = b
	d.scores[0].found = 4
	d.final.WALErrors = 1
	lost, problems := conservation(in, d)
	if lost != 2 {
		t.Errorf("one pair and one unrouted event unaccounted for, conservation counts %d lost", lost)
	}
	got := strings.Join(problems, "; ")
	for _, want := range []string{"(event, query) pairs", "unrouted", "malformed", "reference matches are missing", "wal_errors=1"} {
		if !strings.Contains(got, want) {
			t.Errorf("problems %q lack %q", got, want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the harness must run exactly
// the workloads and print exactly the metrics it declares.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
	}

	// Run both reporters over an empty drive to learn what they print.
	w := smallWorkload()
	in := w.build(1, 2)
	d := &drive{
		setups:  []time.Duration{time.Second},
		windows: make([]window, in.slices()+1),
		scores:  make([]sliceScore, in.slices()),
		pace:    paceStats{lateness: []time.Duration{0}, sendTimes: []time.Duration{0}},
	}
	d.latencies = make([][]time.Duration, minWindows)
	for i := range d.latencies {
		d.latencies[i] = make([]time.Duration, 200)
	}
	e2e := &result{metrics: map[string]metric{}}
	if err := endToEnd(e2e, w, in, d); err != nil {
		t.Fatal(err)
	}
	layers := &result{metrics: map[string]metric{}}
	perLayer(layers, w, in, d, &layerCosts{})

	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		seen := map[string]bool{}
		for _, m := range declared {
			seen[m.Name] = true
			got, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but not printed", kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s metric %s: declared unit %q, printed %q", kind, m.Name, m.Unit, got.Unit)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not declared", kind, name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, e2e.metrics)
	check("per_layer", decl.PerLayer, layers.metrics)
}
