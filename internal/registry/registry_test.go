package registry

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cepshed/internal/baseline"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

const q1Text = `PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V WITHIN 8ms`
const qxyText = `PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 8ms`

// abcGroup appends one guaranteed Q1 match group (A,B,C sharing an ID
// with a.V+b.V=c.V) at time t.
func abcGroup(s event.Stream, id int64, t event.Time) event.Stream {
	mk := func(typ string, v int64) *event.Event {
		return event.New(typ, t, map[string]event.Value{"ID": event.Int(id), "V": event.Int(v)})
	}
	return append(s, mk("A", 1), mk("B", 2), mk("C", 3))
}

// xyGroup appends one guaranteed XY match group.
func xyGroup(s event.Stream, id int64, t event.Time) event.Stream {
	mk := func(typ string) *event.Event {
		return event.New(typ, t, map[string]event.Value{"ID": event.Int(id)})
	}
	return append(s, mk("X"), mk("Y"))
}

func stamp(s event.Stream) event.Stream {
	for i, e := range s {
		e.Seq = uint64(i)
	}
	return s
}

// collector counts delivered match keys per query across registry
// incarnations; duplicates are the exactly-once violation the
// per-query durability exists to prevent.
type collector struct {
	mu   sync.Mutex
	seen map[string]map[string]int // query id -> match key -> count
}

func newCollector() *collector { return &collector{seen: map[string]map[string]int{}} }

func (c *collector) hook() func(QuerySpec, int, []engine.Match) {
	return func(spec QuerySpec, _ int, ms []engine.Match) {
		c.mu.Lock()
		defer c.mu.Unlock()
		byKey := c.seen[spec.ID()]
		if byKey == nil {
			byKey = map[string]int{}
			c.seen[spec.ID()] = byKey
		}
		for _, m := range ms {
			byKey[m.Key()]++
		}
	}
}

func (c *collector) counts(id string) (total, dups int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.seen[id] {
		total++
		if n > 1 {
			dups++
		}
	}
	return total, dups
}

func mustAdd(t *testing.T, g *Registry, spec QuerySpec) *Instance {
	t.Helper()
	in, err := g.Add(spec)
	if err != nil {
		t.Fatalf("Add(%s): %v", spec.ID(), err)
	}
	in.WaitReady()
	return in
}

// drainInst polls until the instance's runtime has ingested want events
// and its queues are empty.
func drainInst(t *testing.T, in *Instance, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := in.Runtime().Snapshot()
		depth := 0
		for _, ss := range s.Shards {
			depth += ss.QueueDepth
		}
		if s.EventsIn == want && depth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: EventsIn=%d want %d depth=%d", s.EventsIn, want, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFanOutRoutesByType(t *testing.T) {
	g, err := Open(Config{Shards: 2, Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	abc := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
	xy := mustAdd(t, g, QuerySpec{Tenant: "t2", Name: "xy", Query: qxyText})

	var s event.Stream
	s = abcGroup(s, 1, 0)
	s = xyGroup(s, 1, 0)
	// An event type no query subscribes to must be counted, not offered.
	s = append(s, event.New("Z", 0, map[string]event.Value{"ID": event.Int(1)}))
	s = stamp(s)

	res := g.OfferBatch(s)
	if res.Events != 6 || res.Unrouted != 1 {
		t.Fatalf("OfferResult = %+v, want Events=6 Unrouted=1", res)
	}
	if res.Deliveries != 5 || res.DoorRejected != 0 {
		t.Fatalf("OfferResult = %+v, want Deliveries=5", res)
	}
	drainInst(t, abc, 3)
	drainInst(t, xy, 2)

	if got := abc.Runtime().Snapshot().Matches; got != 1 {
		t.Errorf("abc matches = %d, want 1", got)
	}
	if got := xy.Runtime().Snapshot().Matches; got != 1 {
		t.Errorf("xy matches = %d, want 1", got)
	}
	snap := g.Snapshot()
	if snap.Unrouted != 1 {
		t.Errorf("snapshot Unrouted = %d, want 1", snap.Unrouted)
	}
	if snap.EventsIn != 5 {
		t.Errorf("snapshot EventsIn = %d, want 5", snap.EventsIn)
	}
	if snap.QueryCount != 2 || snap.InputShedRatio != 0 || snap.PMShedRatio != 0 || snap.SnapshotAge != 0 {
		t.Errorf("derived figures = %d queries, rho_I %g, rho_S %g, snapshot age %v; want 2, 0, 0, 0",
			snap.QueryCount, snap.InputShedRatio, snap.PMShedRatio, snap.SnapshotAge)
	}
}

func TestKeySaltDistinguishesInstances(t *testing.T) {
	g, err := Open(Config{Shards: 4, Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "a", Query: q1Text})
	b := mustAdd(t, g, QuerySpec{Tenant: "t2", Name: "b", Query: q1Text})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("identical query text under different tenants must fingerprint differently")
	}
	if a.Runtime().Fingerprint() != 0 || b.Runtime().Fingerprint() != 0 {
		t.Fatal("non-durable runtimes should have zero checkpoint fingerprints")
	}
}

func TestLifecycleAddPauseResumeRemove(t *testing.T) {
	g, err := Open(Config{Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})

	if _, err := g.Add(QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text}); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if _, err := g.Add(QuerySpec{Tenant: "t1", Name: "bad", Query: "PATTERN ("}); err == nil {
		t.Fatal("unparsable query must fail validation")
	}
	if _, err := g.Add(QuerySpec{Tenant: "", Name: "x", Query: q1Text}); err == nil {
		t.Fatal("empty tenant must fail")
	}
	if _, err := g.Add(QuerySpec{Tenant: "a/b", Name: "x", Query: q1Text}); err == nil {
		t.Fatal("slash in tenant must fail")
	}

	if err := g.Pause("t1", "abc"); err != nil {
		t.Fatal(err)
	}
	res := g.OfferBatch(stamp(abcGroup(nil, 1, 0)))
	if res.Deliveries != 0 || res.Unrouted != 3 {
		t.Fatalf("paused query still routed: %+v", res)
	}
	if err := g.Resume("t1", "abc"); err != nil {
		t.Fatal(err)
	}
	res = g.OfferBatch(stamp(abcGroup(nil, 2, 0)))
	if res.Deliveries != 3 {
		t.Fatalf("resumed query not routed: %+v", res)
	}
	drainInst(t, in, 3)

	if err := g.Remove("t1", "abc", false); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove("t1", "abc", false); err == nil {
		t.Fatal("double Remove must fail")
	}
	res = g.OfferBatch(stamp(abcGroup(nil, 3, 0)))
	if res.Deliveries != 0 {
		t.Fatalf("removed query still routed: %+v", res)
	}
}

// TestManifestRestartRecoversAllQueries is the tentpole's durability
// criterion: a registry with several queries (different tenants) is
// closed and reopened; every query re-registers from the manifest,
// recovers its own fingerprinted state, and replaying the shared
// stream from the beginning produces zero duplicate emissions because
// each query's recovery floor drops what it already processed.
func TestManifestRestartRecoversAllQueries(t *testing.T) {
	dir := t.TempDir()
	col := newCollector()
	cfg := Config{
		Shards:    2,
		StateDir:  dir,
		OnMatches: col.hook(),
		Arbiter:   ArbiterConfig{Disabled: true},
	}

	var s event.Stream
	for i := 0; i < 40; i++ {
		s = abcGroup(s, int64(i), event.Time(i)*event.Millisecond)
		s = xyGroup(s, int64(i), event.Time(i)*event.Millisecond)
	}
	s = stamp(s)

	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetTenant(Tenant{Name: "t1", Theta: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	abc := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
	xy := mustAdd(t, g, QuerySpec{Tenant: "t2", Name: "xy", Query: qxyText})
	g.OfferBatch(s)
	drainInst(t, abc, 120)
	drainInst(t, xy, 80)
	g.Close()

	wantABC, dups := col.counts("t1/abc")
	if wantABC != 40 || dups != 0 {
		t.Fatalf("first run: abc matches=%d dups=%d, want 40/0", wantABC, dups)
	}
	wantXY, _ := col.counts("t2/xy")
	if wantXY != 40 {
		t.Fatalf("first run: xy matches=%d, want 40", wantXY)
	}

	// Restart: the manifest must bring both queries back without Add.
	g2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	g2.WaitRecovered()
	snap := g2.Snapshot()
	if len(snap.Queries) != 2 {
		t.Fatalf("restart registered %d queries, want 2", len(snap.Queries))
	}
	info := g2.RecoveryInfo()
	if info.Restored != 2 {
		t.Fatalf("RecoveryInfo.Restored = %d, want 2", info.Restored)
	}
	if info.MaxSeq != uint64(len(s)-1) {
		t.Fatalf("RecoveryInfo.MaxSeq = %d, want %d", info.MaxSeq, len(s)-1)
	}
	if info.MinFloorSeq == 0 {
		t.Fatal("MinFloorSeq = 0: floors not established")
	}

	// Replay the whole stream: every pair must hit a recovery floor and
	// no match may be emitted twice.
	res := g2.OfferBatch(s)
	if res.Deliveries != 0 || res.FloorSkipped != 200 {
		t.Fatalf("replay result %+v, want all 200 pairs floor-skipped", res)
	}
	for _, id := range []string{"t1/abc", "t2/xy"} {
		if total, dups := col.counts(id); dups != 0 || total != 40 {
			t.Fatalf("%s after replay: matches=%d dups=%d, want 40/0", id, total, dups)
		}
	}

	// Fresh input above the floor must flow and match.
	var s2 event.Stream
	s2 = abcGroup(s2, 1000, event.Time(100)*event.Millisecond)
	for i, e := range s2 {
		e.Seq = uint64(len(s) + i)
	}
	abc2, _ := g2.Get("t1", "abc")
	// Counters compose across incarnations: EventsIn resumes from the
	// restored total.
	base := abc2.Runtime().Snapshot().EventsIn
	res = g2.OfferBatch(s2)
	if res.Deliveries != 3 {
		t.Fatalf("post-restart fresh events: %+v", res)
	}
	drainInst(t, abc2, base+3)
	if total, _ := col.counts("t1/abc"); total != 41 {
		t.Fatalf("fresh match not detected: abc total=%d, want 41", total)
	}
}

// TestCrashRecoveryExactlyOnce kills the whole registry mid-stream (no
// final snapshots, WAL tails abandoned) and verifies that reopening and
// replaying from the beginning emits every query's matches exactly
// once.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	col := newCollector()
	cfg := Config{
		StateDir:  dir,
		OnMatches: col.hook(),
		Arbiter:   ArbiterConfig{Disabled: true},
	}

	var s event.Stream
	for i := 0; i < 60; i++ {
		s = abcGroup(s, int64(i), event.Time(i)*event.Millisecond)
	}
	s = stamp(s)

	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	abc := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
	cut := 90 // 30 full groups
	g.OfferBatch(s[:cut])
	drainInst(t, abc, uint64(cut))
	g.Kill()

	g2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	g2.WaitRecovered()
	in2, ok := g2.Get("t1", "abc")
	if !ok {
		t.Fatal("query not re-registered after crash")
	}
	// Replay everything: the floor absorbs the prefix, the suffix
	// completes the stream. EventsIn resumes from the restored total.
	base := in2.Runtime().Snapshot().EventsIn
	res := g2.OfferBatch(s)
	if res.FloorSkipped == 0 {
		t.Fatalf("no floor skips after crash recovery: %+v", res)
	}
	drainInst(t, in2, base+uint64(res.Deliveries))
	total, dups := col.counts("t1/abc")
	if dups != 0 {
		t.Fatalf("%d duplicate matches after crash recovery", dups)
	}
	if total != 60 {
		t.Fatalf("matches after crash+replay = %d, want 60", total)
	}
}

// TestMidStreamAddCheckpointsIndependently adds a second query while
// the first is already serving, then restarts: both queries must come
// back, each from its own state directory.
func TestMidStreamAddCheckpointsIndependently(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Arbiter: ArbiterConfig{Disabled: true}}

	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	abc := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
	s1 := stamp(abcGroup(nil, 1, 0))
	g.OfferBatch(s1)
	drainInst(t, abc, 3)

	// Mid-stream add: the new query starts cold and sees only later
	// events.
	xy := mustAdd(t, g, QuerySpec{Tenant: "t2", Name: "xy", Query: qxyText})
	s2 := xyGroup(nil, 7, event.Millisecond)
	for i, e := range s2 {
		e.Seq = uint64(len(s1) + i)
	}
	g.OfferBatch(s2)
	drainInst(t, xy, 2)
	g.Close()

	g2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	g2.WaitRecovered()
	if len(g2.Snapshot().Queries) != 2 {
		t.Fatal("mid-stream-added query lost across restart")
	}
	info := g2.RecoveryInfo()
	if info.Restored != 2 {
		t.Fatalf("Restored = %d, want 2 (independent checkpoints)", info.Restored)
	}
	// The two queries restored different floors: abc through seq 2, xy
	// through seq 4.
	a2, _ := g2.Get("t1", "abc")
	x2, _ := g2.Get("t2", "xy")
	if fa := a2.Runtime().RecoveryInfo().MaxSeq; fa != 2 {
		t.Errorf("abc restored MaxSeq = %d, want 2", fa)
	}
	if fx := x2.Runtime().RecoveryInfo().MaxSeq; fx != 4 {
		t.Errorf("xy restored MaxSeq = %d, want 4", fx)
	}
}

func TestQuarantineEdgeLetters(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Arbiter: ArbiterConfig{Disabled: true}}
	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Quarantine("decode error", "{broken json")
	letters := g.DeadLetters()
	if len(letters) != 1 || letters[0].Tenant != "" || letters[0].Reason != "decode error" {
		t.Fatalf("edge letters = %+v", letters)
	}
	if g.Snapshot().EdgeQuarantined != 1 {
		t.Fatal("edge quarantine not counted")
	}
	// Long bad lines arrive as the decoder's LineError.Payload, already
	// clipped with its "..." marker; the registry stores that payload as
	// it is, whether the clip fell on plain bytes or beside a multi-byte
	// rune.
	for _, pad := range []int{158, 159, 200} {
		line := strings.Repeat("a", pad) + "é" + strings.Repeat("b", 40)
		_, _, err := runtime.NewLineDecoder(strings.NewReader(line+"\n"), 1<<16).Next()
		var lerr *runtime.LineError
		if !errors.As(err, &lerr) || !strings.HasSuffix(lerr.Payload, "...") {
			t.Fatalf("pad %d: decoder returned %v", pad, err)
		}
		g.Quarantine(lerr.Error(), lerr.Payload)
		letters := g.DeadLetters()
		if got := letters[len(letters)-1].Payload; got != lerr.Payload {
			t.Errorf("pad %d: stored payload %q, decoder's %q", pad, got, lerr.Payload)
		}
	}
	g.Close()

	// Edge letters survive restart.
	g2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if got := g2.Snapshot().EdgeQuarantined; got != 4 {
		t.Fatalf("edge quarantine lost across restart: %d", got)
	}
	if letters := g2.DeadLetters(); len(letters) != 4 || letters[0].Shard != -1 || letters[0].Reason != "decode error" {
		t.Fatalf("edge letters after restart = %+v", letters)
	}
}

// Quarantines from concurrent connections must leave the newest ring on
// disk: each save happens under the registry's lock, so neither a stale
// image nor two writers sharing the temp file can win.
func TestQuarantineEdgeLettersConcurrent(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), Arbiter: ArbiterConfig{Disabled: true}}
	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g.Quarantine("decode error", strings.Repeat("x", i))
			}
		}()
	}
	wg.Wait()
	g.Close()
	g2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if got := g2.Snapshot().EdgeQuarantined; got != 200 {
		t.Fatalf("edge quarantines after restart = %d, want 200", got)
	}
}

// TestArbiterFairShares checks the water-filling entitlement math in
// isolation: slack from under-share tenants redistributes by priority.
func TestArbiterFairShares(t *testing.T) {
	a := &arbiter{cfg: ArbiterConfig{Capacity: 1.0}.withDefaults()}
	a.cfg.Capacity = 1.0
	tenants := map[string]*TenantLoad{
		"small": {Tenant: "small", Utilization: 0.1},
		"big":   {Tenant: "big", Utilization: 2.0},
		"mid":   {Tenant: "mid", Utilization: 0.4},
	}
	specs := map[string]Tenant{
		"small": Tenant{Name: "small", Priority: 1}.withDefaults(),
		"big":   Tenant{Name: "big", Priority: 1}.withDefaults(),
		"mid":   Tenant{Name: "mid", Priority: 2}.withDefaults(),
	}
	a.entitle(tenants, specs)
	// small demands 0.1 < 1/4 entitlement: satisfied exactly.
	if got := tenants["small"].Share; got != 0.1 {
		t.Errorf("small share = %v, want 0.1", got)
	}
	// Remaining 0.9 splits 2:1 between mid and big → mid 0.6 > demand
	// 0.4 → satisfied; big gets the remaining 0.5.
	if got := tenants["mid"].Share; got != 0.4 {
		t.Errorf("mid share = %v, want 0.4", got)
	}
	if got := tenants["big"].Share; got < 0.499 || got > 0.501 {
		t.Errorf("big share = %v, want 0.5", got)
	}
}

// TestArbiterIsolation is the arbiter's isolation criterion: one
// tenant's expensive query saturates the process; the arbiter must
// tighten THAT tenant's bound only, and the aggressor's own strategy
// (RI) then does the shedding. The aggressor's tenant θ is far above
// what its paced bursts cost in latency, so it violates θ only once x
// applies; the victim runs no strategy and must keep x = 0, every event
// and every match.
func TestArbiterIsolation(t *testing.T) {
	col := newCollector()
	cfg := Config{
		Shards:    1,
		QueueLen:  4096,
		OnMatches: col.hook(),
		Arbiter: ArbiterConfig{
			Interval: 20 * time.Millisecond,
			Capacity: 0.1,
		},
		NewStrategy: func(spec QuerySpec, _ *nfa.Machine, bound time.Duration) (func(int) shed.Strategy, error) {
			if spec.Tenant != "bad" {
				return nil, nil
			}
			return func(i int) shed.Strategy { return baseline.NewRandomInput(event.Time(bound), int64(i)) }, nil
		},
		TuneRuntime: func(spec QuerySpec, rc *runtime.Config) {
			if spec.Tenant == "bad" {
				// Stand-in for a pathological Kleene query: every event
				// costs 1ms of worker time.
				rc.BeforeProcess = func(int, *event.Event) { time.Sleep(time.Millisecond) }
			}
		},
	}
	g, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// 9:1 priority entitles the victim to 0.09 cores, far above what its
	// cheap pairs cost even on a loaded host.
	for _, ten := range []Tenant{{Name: "bad", Priority: 1, Theta: 100 * time.Millisecond}, {Name: "good", Priority: 9}} {
		if err := g.SetTenant(ten); err != nil {
			t.Fatal(err)
		}
	}
	bad := mustAdd(t, g, QuerySpec{Tenant: "bad", Name: "abc", Query: q1Text})
	good := mustAdd(t, g, QuerySpec{Tenant: "good", Name: "xy", Query: qxyText})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var goodOffered, goodDelivered, goodGroups int
	wg.Add(2)
	go func() { // aggressor feed: bursts of 30 expensive A/B/C events
		defer wg.Done()
		seq := uint64(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var s event.Stream
			for k := 0; k < 10; k++ {
				s = abcGroup(s, int64(10*i+k), event.Time(10*i+k)*event.Millisecond)
			}
			for _, e := range s {
				e.Seq = seq
				seq++
			}
			g.OfferBatch(s)
			time.Sleep(20 * time.Millisecond)
		}
	}()
	go func() { // victim feed: cheap X/Y events, modest rate
		defer wg.Done()
		seq := uint64(1 << 40)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var s event.Stream
			s = xyGroup(s, int64(i), event.Time(i)*event.Millisecond)
			for _, e := range s {
				e.Seq = seq
				seq++
			}
			res := g.OfferBatch(s)
			goodOffered += res.Events
			goodDelivered += res.Deliveries
			goodGroups++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Wait until the aggressor's strategy sheds under its tightened bound.
	var badX float64
	deadline := time.Now().Add(15 * time.Second)
	for badX == 0 || bad.Runtime().Snapshot().EventsShed == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("aggressor never shed under the arbiter (x seen %.2f): %+v", badX, g.Snapshot().Arbiter)
		}
		if x := bad.Runtime().Excess(); x > badX {
			badX = x
		}
		if x := good.Runtime().Excess(); x != 0 {
			t.Errorf("victim's bound tightened: x = %.2f", x)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Isolation: the victim kept x = 0, every event and every match.
	if goodDelivered != goodOffered {
		t.Fatalf("victim delivered %d of %d events under overload", goodDelivered, goodOffered)
	}
	drainInst(t, good, uint64(goodOffered))
	rs := good.Runtime().Snapshot()
	if rs.EventsShed != 0 {
		t.Errorf("victim shed %d events", rs.EventsShed)
	}
	if n, _ := col.counts("good/xy"); n != goodGroups {
		t.Errorf("victim found %d of %d matches", n, goodGroups)
	}
	if rs.P99 > 250*time.Millisecond {
		t.Errorf("victim p99 = %v, want < 250ms while the neighbor overloads", rs.P99)
	}
	snap := g.Snapshot()
	for _, tl := range snap.Arbiter.Tenants {
		if tl.Tenant == "good" && tl.Excess != 0 {
			t.Errorf("victim arbitrated: %+v", tl)
		}
	}
	// The registry-wide rho_I /metrics exports covers the aggressor's
	// shedding.
	if want := float64(snap.EventsShed) / float64(snap.EventsIn); snap.EventsShed == 0 || snap.InputShedRatio != want {
		t.Errorf("InputShedRatio = %g, want %d/%d", snap.InputShedRatio, snap.EventsShed, snap.EventsIn)
	}
}

// TestArbiterShedBudget caps x by the tenant's budget and decays it once
// the tenant is back under its share.
func TestArbiterShedBudget(t *testing.T) {
	g, err := Open(Config{Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := mustAdd(t, g, QuerySpec{Tenant: "t", Name: "q", Query: q1Text})
	spec := Tenant{Name: "t", Priority: 1, ShedBudget: 0.3}
	// Fairness asks for x = 0.8; the budget caps it at 0.3.
	tl := &TenantLoad{Tenant: "t", Utilization: 1.0, Share: 0.2}
	tighten([]*Instance{in}, tl, spec, true)
	if !tl.BudgetCapped || tl.Excess != 0.3 || in.Runtime().Excess() != 0.3 {
		t.Fatalf("budget 0.3: tenant %+v, runtime x = %v", tl, in.Runtime().Excess())
	}
	for _, want := range []float64{0.15, 0.075, 0.0375, 0} {
		tl := &TenantLoad{Tenant: "t", Utilization: 1.0}
		tighten([]*Instance{in}, tl, spec, false)
		if x := in.Runtime().Excess(); x != want || tl.Excess != want {
			t.Fatalf("decay: x = %v (tenant %v), want %v", x, tl.Excess, want)
		}
	}
}

func TestOfferSingleEvent(t *testing.T) {
	g, err := Open(Config{Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
	e := event.New("A", 0, map[string]event.Value{"ID": event.Int(1), "V": event.Int(1)})
	if !g.Offer(e) {
		t.Fatal("Offer rejected an accepted event")
	}
	drainInst(t, in, 1)
	// Unrouted events are not failures at the edge.
	if !g.Offer(event.New("Z", 0, nil)) {
		t.Fatal("Offer of unrouted event should report success")
	}
}

func TestSnapshotDegradationBounds(t *testing.T) {
	g, err := Open(Config{Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mustAdd(t, g, QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
	mustAdd(t, g, QuerySpec{Tenant: "t2", Name: "xy", Query: qxyText})
	snap := g.Snapshot()
	if snap.MaxDegradation != runtime.LevelNormal || snap.MinDegradation != runtime.LevelNormal {
		t.Fatalf("idle degradation bounds = %d/%d", snap.MinDegradation, snap.MaxDegradation)
	}
	if len(snap.Queries) != 2 {
		t.Fatalf("queries = %d", len(snap.Queries))
	}
	for _, q := range snap.Queries {
		if q.Fingerprint == fmt.Sprintf("%016x", 0) {
			t.Fatalf("zero fingerprint for %s", q.Spec.ID())
		}
	}
	sort.SliceIsSorted(snap.Queries, func(i, j int) bool {
		return snap.Queries[i].Spec.ID() < snap.Queries[j].Spec.ID()
	})
}

// A count window is a global sequence distance that stretches when each
// shard sees only a subsequence: the registry refuses one on more than
// one shard, before registering anything, rather than answer it wrong.
func TestCountWindowNeedsOneShard(t *testing.T) {
	g, err := Open(Config{Shards: 2, Arbiter: ArbiterConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const text = `PATTERN SEQ(X x, Y y) WHERE x.ID = y.ID WITHIN 100 EVENTS`
	if _, err := g.Add(QuerySpec{Tenant: "t", Name: "two", Query: text}); err == nil || !strings.Contains(err.Error(), "count window") {
		t.Fatalf("count window at Shards: 2 added, err = %v", err)
	}
	if n := len(g.Snapshot().Queries); n != 0 {
		t.Fatalf("refused query left %d registered", n)
	}
	mustAdd(t, g, QuerySpec{Tenant: "t", Name: "one", Query: text, Shards: 1})
}

// keys returns the query's delivered match keys, sorted, and how many
// were delivered more than once.
func (c *collector) keys(id string) (keys []string, dups int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, n := range c.seen[id] {
		keys = append(keys, k)
		if n > 1 {
			dups++
		}
	}
	sort.Strings(keys)
	return keys, dups
}

// TestPoolGoroutinesBoundedByCores registers 32 queries of 2 shards
// each — multiquery-wal's shape — and requires the goroutines they add
// to stay within GOMAXPROCS plus a few (the arbiter loop, activation
// goroutines on their way out): every query's shards share the
// registry's one worker pool instead of bringing a worker per shard.
func TestPoolGoroutinesBoundedByCores(t *testing.T) {
	before := goruntime.NumGoroutine()
	g, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var in *Instance
	for i := 0; i < 32; i++ {
		in = mustAdd(t, g, QuerySpec{Tenant: "t", Name: fmt.Sprintf("q%02d", i), Query: q1Text})
	}
	procs := goruntime.GOMAXPROCS(0)
	if w := in.Runtime().Snapshot().Workers; w != min(procs, 64) {
		t.Errorf("snapshot reports %d workers, want the pool's min(GOMAXPROCS=%d, 64 shards)", w, procs)
	}
	const edge = 4
	added := 0
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if added = goruntime.NumGoroutine() - before; added <= procs+edge || time.Now().After(deadline) {
			break
		}
	}
	if added > procs+edge {
		t.Fatalf("32 queries x 2 shards added %d goroutines, want <= GOMAXPROCS (%d) + %d", added, procs, edge)
	}
}
