package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

const q1Text = `PATTERN SEQ(A a, B b, C c) WHERE a.ID = b.ID AND a.ID = c.ID AND a.V + b.V = c.V WITHIN 8ms`

// matchCollector counts delivered match keys across every node; a key
// seen twice is the exactly-once violation failover must not cause.
type matchCollector struct {
	mu   sync.Mutex
	seen map[string]int
}

func newMatchCollector() *matchCollector { return &matchCollector{seen: map[string]int{}} }

func (c *matchCollector) hook() func(registry.QuerySpec, int, []engine.Match) {
	return func(_ registry.QuerySpec, _ int, ms []engine.Match) {
		for _, m := range ms {
			// Key by the partition attribute, not m.Key(): seq numbers are
			// node-local, so seq-based keys from different nodes collide.
			key := ""
			if len(m.Events) > 0 {
				key = fmt.Sprintf("id=%d", m.Events[0].Int("ID"))
			}
			c.mu.Lock()
			c.seen[key]++
			c.mu.Unlock()
		}
	}
}

func (c *matchCollector) counts() (total, dups int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.seen {
		total++
		if n > 1 {
			dups++
		}
	}
	return total, dups
}

// tcNode is one in-process cluster member: a real registry, a real
// Node, and a real HTTP server mounting the same /cluster routes
// cepserved does — only the process boundary is missing.
type tcNode struct {
	name   string
	reg    *registry.Registry
	in     *registry.Instance
	node   *Node
	srv    *httptest.Server
	top    Topology // the full topology (every harness node), for reloads
	muxp   *atomic.Pointer[http.ServeMux]
	seq    atomic.Uint64
	lastT  atomic.Int64
	killed sync.Once
}

func (tn *tcNode) stampTime(e *event.Event) {
	for {
		last := tn.lastT.Load()
		if int64(e.Time) >= last {
			if tn.lastT.CompareAndSwap(last, int64(e.Time)) {
				return
			}
			continue
		}
		e.Time = event.Time(last)
		return
	}
}

func (tn *tcNode) stampSeq(e *event.Event) { e.Seq = tn.seq.Add(1) - 1 }

func (tn *tcNode) bumpSeq(min uint64) {
	for {
		cur := tn.seq.Load()
		if cur >= min || tn.seq.CompareAndSwap(cur, min) {
			return
		}
	}
}

// kill takes the node down the clean way: cluster plumbing, then the
// registry (flushing its WALs — the durable state failover reads), then
// the listener so peers' heartbeats start failing. Idempotent.
func (tn *tcNode) kill() {
	tn.killed.Do(func() {
		tn.node.Close()
		tn.reg.Close()
		tn.srv.Close()
	})
}

// tcOpts customizes the harness beyond the common-path defaults.
type tcOpts struct {
	// transport, when set, supplies each node's HTTP transport keyed by
	// node name — chaos tests hand every node its own fault.NetChaos so
	// partitions can be asymmetric.
	transport      func(name string) http.RoundTripper
	forwardRetries int
	retryPolicy    runtime.RestartPolicy
	forwardBuf     int
	// topoNames, when set for a node, is the member list that node
	// boots with (default: every name) — the reload test starts the
	// incumbents on a smaller topology than the joiner.
	topoNames map[string][]string
	// deferStart nodes are built but not Start()ed; the test starts
	// them when the scenario calls for it.
	deferStart map[string]bool
	// tuneRuntime, when set, adjusts each node's query runtime before it
	// starts (queue length, latency bound, worker hooks).
	tuneRuntime func(node string, rc *runtime.Config)
}

// newTestCluster builds len(names) in-process nodes sharing one state
// root, each serving the same query over `shards` slots.
func newTestCluster(t *testing.T, names []string, shards int, col *matchCollector, det DetectorConfig) map[string]*tcNode {
	t.Helper()
	return newTestClusterOpts(t, names, shards, col, det, tcOpts{})
}

func newTestClusterOpts(t *testing.T, names []string, shards int, col *matchCollector, det DetectorConfig, opts tcOpts) map[string]*tcNode {
	t.Helper()
	root := t.TempDir()
	nodes := map[string]*tcNode{}
	var top Topology
	for _, name := range names {
		tn := &tcNode{name: name}
		var mux atomic.Pointer[http.ServeMux]
		tn.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if m := mux.Load(); m != nil {
				m.ServeHTTP(w, r)
				return
			}
			http.Error(w, "booting", http.StatusServiceUnavailable)
		}))
		tn.muxp = &mux
		nodes[name] = tn
		top.Nodes = append(top.Nodes, NodeSpec{
			Name:     name,
			Addr:     strings.TrimPrefix(tn.srv.URL, "http://"),
			StateDir: filepath.Join(root, name),
		})
	}
	for i, name := range names {
		tn := nodes[name]
		rcfg := registry.Config{
			Shards:    shards,
			StateDir:  top.Nodes[i].StateDir,
			OnMatches: col.hook(),
			Arbiter:   registry.ArbiterConfig{Disabled: true},
		}
		if opts.tuneRuntime != nil {
			rcfg.TuneRuntime = func(_ registry.QuerySpec, rc *runtime.Config) { opts.tuneRuntime(name, rc) }
		}
		reg, err := registry.Open(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := reg.Add(registry.QuerySpec{Tenant: "t1", Name: "abc", Query: q1Text})
		if err != nil {
			t.Fatal(err)
		}
		in.WaitReady()
		nodeTop := top
		if members, ok := opts.topoNames[name]; ok {
			nodeTop = Topology{}
			keep := map[string]bool{}
			for _, m := range members {
				keep[m] = true
			}
			for _, spec := range top.Nodes {
				if keep[spec.Name] {
					nodeTop.Nodes = append(nodeTop.Nodes, spec)
				}
			}
		}
		tn.top = top
		cfg := Config{
			Self:           name,
			Topology:       nodeTop,
			Registry:       reg,
			StampTime:      tn.stampTime,
			StampSeq:       tn.stampSeq,
			BumpSeq:        tn.bumpSeq,
			Detector:       det,
			HTTPTimeout:    2 * time.Second,
			ForwardRetries: opts.forwardRetries,
			RetryPolicy:    opts.retryPolicy,
			ForwardBuf:     opts.forwardBuf,
		}
		if opts.transport != nil {
			cfg.Transport = opts.transport(name)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /cluster/health", node.HandleHealth)
		mux.HandleFunc("GET /cluster/peerview", node.HandlePeerView)
		mux.HandleFunc("GET /cluster/audit", node.HandleAudit)
		mux.HandleFunc("/cluster/placement", node.HandlePlacement)
		mux.HandleFunc("POST /cluster/forward", node.HandleForward)
		mux.HandleFunc("POST /cluster/handoff", node.HandleHandoff)
		mux.HandleFunc("GET /cluster", node.HandleStatus)
		tn.muxp.Store(mux)
		tn.reg, tn.in, tn.node = reg, in, node
	}
	for _, name := range names {
		if opts.deferStart[name] {
			continue
		}
		nodes[name].node.Start()
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.kill()
		}
	})
	return nodes
}

// abcEvents builds one guaranteed match group per id, restricted to
// the given event types so tests can split a group across phases
// (A+B now, C after a handoff). Every event carries the SAME
// timestamp: the engine's 8ms window only advances with event time, so
// partial matches built in phase one are still live — not expired —
// when the completing events arrive in phase two. Distinct ids cannot
// cross-match (the ID equality predicates), so one shared instant is
// safe.
func abcEvents(ids []int64, types ...string) []Input {
	var batch []Input
	for _, id := range ids {
		t := 10 * event.Millisecond
		for _, typ := range types {
			v := map[string]int64{"A": 1, "B": 2, "C": 3}[typ]
			e := event.New(typ, t, map[string]event.Value{"ID": event.Int(id), "V": event.Int(v)})
			batch = append(batch, Input{E: e, HasTime: true})
		}
	}
	return batch
}

// drainQueues waits until every live node's shard queues are empty.
func drainQueues(t *testing.T, nodes ...*tcNode) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		depth := 0
		for _, tn := range nodes {
			s := tn.in.Runtime().Snapshot()
			for _, ss := range s.Shards {
				depth += ss.QueueDepth
			}
		}
		if depth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queues never drained: depth=%d", depth)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitMatches polls the collector until `want` distinct matches arrive.
func waitMatches(t *testing.T, col *matchCollector, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		total, _ := col.counts()
		if total >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("matches stalled at %d, want %d", total, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func slowDetector() DetectorConfig {
	// Effectively disabled: these tests drive placement by hand.
	return DetectorConfig{Interval: time.Hour, Misses: 3, Seed: 1}
}

func fastDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Interval: 5 * time.Millisecond,
		Misses:   3,
		Policy:   runtime.RestartPolicy{BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond},
		Seed:     1,
	}
}

// Every (event, query) pair offered at one node's edge is accounted
// for exactly once across the cluster: processed locally, forwarded
// (and then processed remotely), dropped, or unrouted — and the
// sender/receiver counters reconcile once the queues quiesce.
func TestClusterRoutingConservation(t *testing.T) {
	col := newMatchCollector()
	nodes := newTestCluster(t, []string{"n1", "n2", "n3"}, 4, col, slowDetector())
	n1 := nodes["n1"]

	ids := make([]int64, 60)
	for i := range ids {
		ids[i] = int64(i)
	}
	batch := abcEvents(ids, "A", "B", "C")

	var res RouteResult
	for i := 0; i < len(batch); i += 32 {
		end := i + 32
		if end > len(batch) {
			end = len(batch)
		}
		r := n1.node.OfferBatch(batch[i:end])
		res.Deliveries += r.Deliveries
		res.DoorRejected += r.DoorRejected
		res.FloorSkipped += r.FloorSkipped
		res.ForwardedPairs += r.ForwardedPairs
		res.DroppedPairs += r.DroppedPairs
		res.Unrouted += r.Unrouted
	}
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("forward queues never quiesced")
	}
	drainQueues(t, n1, nodes["n2"], nodes["n3"])

	local := res.Deliveries + res.DoorRejected + res.FloorSkipped
	accounted := local + res.ForwardedPairs + res.DroppedPairs + res.Unrouted
	if accounted != len(batch) {
		t.Errorf("pairs accounted = %d (local %d fwd %d drop %d unrouted %d), want %d",
			accounted, local, res.ForwardedPairs, res.DroppedPairs, res.Unrouted, len(batch))
	}
	if res.DroppedPairs != 0 || res.Unrouted != 0 {
		t.Errorf("healthy cluster lost pairs: drop=%d unrouted=%d",
			res.DroppedPairs, res.Unrouted)
	}

	s1 := n1.node.Status()
	recvIn := nodes["n2"].node.Status().ForwardedIn + nodes["n3"].node.Status().ForwardedIn
	if s1.ForwardedOut != uint64(res.ForwardedPairs) || recvIn != s1.ForwardedOut {
		t.Errorf("forward counters: queued=%d sent=%d received=%d — must all agree",
			res.ForwardedPairs, s1.ForwardedOut, recvIn)
	}
	if s1.InFlight != 0 {
		t.Errorf("handoff_in_flight = %d after quiesce, want 0", s1.InFlight)
	}

	// Every event landed in exactly one engine.
	var eventsIn uint64
	for _, tn := range nodes {
		eventsIn += tn.in.Runtime().Snapshot().EventsIn
	}
	if eventsIn != uint64(len(batch)) {
		t.Errorf("sum EventsIn across nodes = %d, want %d", eventsIn, len(batch))
	}

	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, len(ids))
	}
}

// A planned handoff loses nothing: partial matches built on the source
// complete on the target after the slot moves.
func TestPlannedHandoffZeroLoss(t *testing.T) {
	col := newMatchCollector()
	nodes := newTestCluster(t, []string{"n1", "n2"}, 4, col, slowDetector())

	// Work with the slot that owns id probes mapping to slot-of-owner;
	// drive the move from whichever node owns slot 0.
	fp := nodes["n1"].in.Fingerprint()
	ownerName, _ := nodes["n1"].node.Placement().Owner(fp, 0)
	src := nodes[ownerName]
	var dst *tcNode
	for name, tn := range nodes {
		if name != ownerName {
			dst = tn
		}
	}

	// Collect ids that hash to slot 0.
	var ids []int64
	for id := int64(0); len(ids) < 10; id++ {
		probe := event.New("A", 0, map[string]event.Value{"ID": event.Int(id), "V": event.Int(1)})
		if src.in.ShardSlot(probe) == 0 {
			ids = append(ids, id)
		}
	}

	// Phase 1: A and B at the source — 10 live partial matches.
	src.node.OfferBatch(abcEvents(ids, "A", "B"))
	drainQueues(t, src)

	// The move: drain → export → ship → durable import → retire.
	spec := src.in.Spec()
	if err := src.node.MoveSlot(spec.Tenant, spec.Name, 0, dst.name); err != nil {
		t.Fatalf("MoveSlot: %v", err)
	}
	if got := src.node.Status().HandoffsOut; got != 1 {
		t.Fatalf("handoffs_out = %d, want 1", got)
	}
	if got := dst.node.Status().HandoffsIn; got != 1 {
		t.Fatalf("handoffs_in = %d, want 1", got)
	}
	for _, tn := range nodes {
		if owner, _ := tn.node.Placement().Owner(fp, 0); owner != dst.name {
			t.Fatalf("%s sees owner %s after move, want %s", tn.name, owner, dst.name)
		}
	}

	// Phase 2: C events, still ingested at the source, must forward to
	// the target and complete the migrated partial matches there.
	src.node.OfferBatch(abcEvents(ids, "C"))
	if !src.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("forward queue never quiesced")
	}
	drainQueues(t, dst)
	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0 — planned handoff must lose nothing", total, dups, len(ids))
	}
	if drops := src.node.Status().ForwardDrop; drops != 0 {
		t.Errorf("forward_dropped = %d during planned handoff, want 0", drops)
	}
}

// A handoff whose target dies mid-ship leaves the source authoritative:
// the slot unfreezes, nothing is lost, and the failure is counted.
func TestHandoffTargetDeathKeepsSourceAuthoritative(t *testing.T) {
	col := newMatchCollector()
	nodes := newTestCluster(t, []string{"n1", "n2"}, 4, col, slowDetector())

	fp := nodes["n1"].in.Fingerprint()
	ownerName, _ := nodes["n1"].node.Placement().Owner(fp, 0)
	src := nodes[ownerName]
	var dst *tcNode
	for name, tn := range nodes {
		if name != ownerName {
			dst = tn
		}
	}
	var ids []int64
	for id := int64(0); len(ids) < 8; id++ {
		probe := event.New("A", 0, map[string]event.Value{"ID": event.Int(id), "V": event.Int(1)})
		if src.in.ShardSlot(probe) == 0 {
			ids = append(ids, id)
		}
	}
	src.node.OfferBatch(abcEvents(ids, "A", "B"))
	drainQueues(t, src)

	// Kill the target's listener mid-protocol: the ship must fail.
	dst.srv.Close()
	spec := src.in.Spec()
	if err := src.node.MoveSlot(spec.Tenant, spec.Name, 0, dst.name); err == nil {
		t.Fatal("MoveSlot succeeded against a dead target")
	}
	st := src.node.Status()
	if st.HandoffFailed != 1 || st.HandoffsOut != 0 {
		t.Fatalf("status after failed handoff: failed=%d out=%d, want 1/0", st.HandoffFailed, st.HandoffsOut)
	}
	if st.InFlight != 0 {
		t.Fatalf("handoff_in_flight = %d after failed handoff, want 0", st.InFlight)
	}
	if owner, _ := src.node.Placement().Owner(fp, 0); owner != src.name {
		t.Fatalf("ownership moved to %s despite the failed handoff", owner)
	}

	// The slot must still serve: completing events produce every match.
	src.node.OfferBatch(abcEvents(ids, "C"))
	drainQueues(t, src)
	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0 after failed handoff", total, dups, len(ids))
	}
}

// Failover: when a node dies, survivors detect it, partition its slots
// deterministically, adopt the durable state from its directory, and
// complete its in-flight partial matches — zero duplicates, zero loss
// of flushed state. Runs with the fast detector; also exercised under
// -race by make chaos.
func TestClusterFailoverExactlyOnce(t *testing.T) {
	col := newMatchCollector()
	nodes := newTestCluster(t, []string{"n1", "n2", "n3"}, 8, col, fastDetectorConfig())
	n1, n2, n3 := nodes["n1"], nodes["n2"], nodes["n3"]
	fp := n1.in.Fingerprint()

	// Which slots does n3 own? Deterministic: same answer on every node.
	var n3slots []int
	for slot := 0; slot < 8; slot++ {
		if owner, _ := n1.node.Placement().Owner(fp, slot); owner == "n3" {
			n3slots = append(n3slots, slot)
		}
	}
	if len(n3slots) == 0 {
		t.Fatal("rendezvous gave n3 zero of 8 slots; pick different node names")
	}

	// Phase 1: partial matches everywhere, including on n3.
	ids := make([]int64, 30)
	for i := range ids {
		ids[i] = int64(i)
	}
	n1.node.OfferBatch(abcEvents(ids, "A", "B"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("forward queues never quiesced")
	}
	drainQueues(t, n1, n2, n3)

	// Kill n3. Clean close: its WAL is flushed, so failover must lose
	// NOTHING (the unflushed-tail loss bound only applies to SIGKILL,
	// covered by the cluster-smoke e2e).
	n3.kill()

	// Survivors must notice, adopt every n3 slot, and agree on owners.
	deadline := time.Now().Add(15 * time.Second)
	for {
		adopted := n1.node.Status().Takeovers + n2.node.Status().Takeovers
		if n1.node.Placement().IsDown("n3") && n2.node.Placement().IsDown("n3") &&
			adopted == uint64(len(n3slots)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover stalled: n3 down=%v/%v takeovers=%d want %d",
				n1.node.Placement().IsDown("n3"), n2.node.Placement().IsDown("n3"),
				adopted, len(n3slots))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, slot := range n3slots {
		o1, _ := n1.node.Placement().Owner(fp, slot)
		o2, _ := n2.node.Placement().Owner(fp, slot)
		if o1 != o2 || o1 == "n3" {
			t.Fatalf("slot %d: owners diverge after failover (%s vs %s)", slot, o1, o2)
		}
	}
	if !n1.node.Degraded() {
		t.Error("cluster not marked degraded with a dead peer")
	}

	// Phase 2: completing C events. Matches whose A/B state lived on n3
	// complete on the adopters — every id exactly once.
	n1.node.OfferBatch(abcEvents(ids, "C"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("forward queues never quiesced after failover")
	}
	drainQueues(t, n1, n2)
	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0 — failover must not lose or duplicate", total, dups, len(ids))
	}
}

// TestRouterLogsEachLocalEventOnce routes one batch through a durable
// two-node cluster serving two queries. The ingest node's input log
// must hold one untagged E record per event with a local pair, however
// many it has, plus an R record for each subscribed query whose pair
// went to the peer, and no tagged records; the peer logs each forward
// it received as a (query, slot)-tagged T record.
func TestRouterLogsEachLocalEventOnce(t *testing.T) {
	col := newMatchCollector()
	nodes := newTestCluster(t, []string{"n1", "n2"}, 4, col, slowDetector())
	ins := map[string][]*registry.Instance{}
	for name, tn := range nodes {
		in, err := tn.reg.Add(registry.QuerySpec{Tenant: "t1", Name: "ab", Query: `PATTERN SEQ(A a, B b) WHERE a.ID = b.ID WITHIN 8ms`})
		if err != nil {
			t.Fatal(err)
		}
		in.WaitReady()
		ins[name] = []*registry.Instance{tn.in, in}
	}
	ingest, peer := nodes["n1"], nodes["n2"]
	var ids []int64
	for id := int64(0); id < 40; id++ {
		ids = append(ids, id)
	}
	batch := abcEvents(ids, "A", "B", "C")
	ingest.node.OfferBatch(batch)
	for deadline := time.Now().Add(30 * time.Second); ingest.node.inFlight.Load() != 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("forwards never drained")
		}
	}
	drainQueues(t, ingest, peer)

	var wantE, wantR, wantT int
	for _, item := range batch {
		local, away := 0, 0
		for _, in := range ins["n1"] {
			if in.Spec().Name == "ab" && item.E.Type == "C" {
				continue
			}
			if owner, _ := ingest.node.Placement().Owner(in.Fingerprint(), in.ShardSlot(item.E)); owner == "n1" {
				local++
			} else {
				away++
			}
		}
		wantT += away
		if local > 0 {
			wantE++
			wantR += away
		}
	}
	ingest.kill()
	peer.kill()
	count := func(tn *tcNode) map[byte]int {
		n := map[byte]int{}
		for _, spec := range tn.top.Nodes {
			if spec.Name != tn.name {
				continue
			}
			if _, err := checkpoint.ReadLog(filepath.Join(spec.StateDir, "log"), checkpoint.Fingerprint("registry", "input-log"),
				func(r checkpoint.Record) { n[r.Kind]++ }); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	got := count(ingest)
	if got[checkpoint.RecEvent] != wantE || got[checkpoint.RecRefused] != wantR || got[checkpoint.RecTagged] != 0 {
		t.Fatalf("ingest log: %d E, %d R, %d T records; want %d E, %d R, 0 T",
			got[checkpoint.RecEvent], got[checkpoint.RecRefused], got[checkpoint.RecTagged], wantE, wantR)
	}
	if got := count(peer); got[checkpoint.RecTagged] != wantT || got[checkpoint.RecEvent] != 0 {
		t.Fatalf("peer log: %d T, %d E records; want %d T for the forwarded pairs, 0 E", got[checkpoint.RecTagged], got[checkpoint.RecEvent], wantT)
	}
	if wantE == 0 || wantR == 0 || wantT == 0 {
		t.Fatalf("placement left a case unexercised: %d E, %d R, %d T", wantE, wantR, wantT)
	}
}
