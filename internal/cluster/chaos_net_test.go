package cluster

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/fault"
	"cepshed/internal/runtime"
)

// Network chaos matrix: every scenario injects faults through
// fault.NetChaos (one injector per node, so partitions can be
// asymmetric), then ends with the cluster conservation audit — no
// scenario may lose an event silently, whatever the network did.

func hostOf(tn *tcNode) string { return strings.TrimPrefix(tn.srv.URL, "http://") }

// netChaosFleet builds one NetChaos per node name and the transport
// factory the harness wants.
func netChaosFleet(names []string) (map[string]*fault.NetChaos, func(string) http.RoundTripper) {
	ncs := map[string]*fault.NetChaos{}
	for _, name := range names {
		ncs[name] = fault.NewNetChaos(nil)
	}
	return ncs, func(name string) http.RoundTripper { return ncs[name] }
}

func fastRetries() tcOpts {
	return tcOpts{
		forwardRetries: 4,
		retryPolicy:    runtime.RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond},
	}
}

// requireConserved runs the cluster audit from `from` (healing first is
// the caller's job) and fails on any conservation violation.
func requireConserved(t *testing.T, from *tcNode, wantDoubles bool) AuditReport {
	t.Helper()
	rep := from.node.AuditCluster()
	if rep.SilentLoss != 0 {
		t.Errorf("audit: silent loss of %d pairs (problems: %v)", rep.SilentLoss, rep.Problems)
	}
	if !wantDoubles && rep.DoubleAccounted != 0 {
		t.Errorf("audit: %d double-accounted pairs, want 0 (problems: %v)", rep.DoubleAccounted, rep.Problems)
	}
	if !rep.OK {
		t.Errorf("audit not OK: %v", rep.Problems)
	}
	if len(rep.Unreachable) != 0 {
		t.Errorf("audit ran partial after heal: unreachable %v", rep.Unreachable)
	}
	return rep
}

// The ambiguous fault: a forward batch IS delivered but its ack is
// dropped. The sender must retry (same peer, same batch ID) and the
// receiver must dedup the retry — without batch IDs this scenario
// double-delivers every dropped-ack batch.
func TestChaosNetRetriedForwardDedup(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	ncs, transport := netChaosFleet(names)
	opts := fastRetries()
	opts.transport = transport
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 8, col, slowDetector(), opts)
	n1, n2, n3 := nodes["n1"], nodes["n2"], nodes["n3"]

	// Arm two drop-after-sends per outbound link from n1. At most one
	// non-forward request (the startup placement pull) can race onto a
	// link, so at least one armed drop lands on a forward batch.
	ncs["n1"].DropAfterSend(hostOf(n2), 2)
	ncs["n1"].DropAfterSend(hostOf(n3), 2)

	ids := make([]int64, 30)
	for i := range ids {
		ids[i] = int64(i)
	}
	res := n1.node.OfferBatch(abcEvents(ids, "A", "B", "C"))
	if res.DroppedPairs != 0 {
		t.Fatalf("healthy-path offer dropped %d pairs", res.DroppedPairs)
	}
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("forward queues never quiesced")
	}
	drainQueues(t, n1, n2, n3)

	// Every id matches exactly once — the retried batches were deduped,
	// not double-delivered.
	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, len(ids))
	}
	if got := n1.node.Status().Retries; got == 0 {
		t.Error("sender recorded no forward retries despite dropped acks")
	}
	if dup := n2.node.Status().DupBatches + n3.node.Status().DupBatches; dup == 0 {
		t.Error("no receiver deduped a retried batch — the retry was either lost or double-delivered")
	}
	if drops := n1.node.Status().ForwardDrop; drops != 0 {
		t.Errorf("router dropped %d pairs; retries should have delivered everything", drops)
	}

	ncs["n1"].Heal()
	rep := requireConserved(t, n1, false)
	if !rep.EngineExact {
		t.Error("engine tier should be exact: no node replayed or imported anything")
	}
	if rep.EdgePairs != uint64(len(ids)*3) {
		t.Errorf("audit edge pairs = %d, want %d", rep.EdgePairs, len(ids)*3)
	}
}

// A full two-way partition between the ingest node and one owner:
// retries exhaust and the affected pairs become loud, counted router
// drops (never silent loss, never a stall). After the heal, new
// traffic flows and the cluster-wide ledger still balances.
func TestChaosNetPartitionSteadyState(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	ncs, transport := netChaosFleet(names)
	opts := tcOpts{
		transport:      transport,
		forwardRetries: 1,
		retryPolicy:    runtime.RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	}
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 8, col, slowDetector(), opts)
	n1, n2, n3 := nodes["n1"], nodes["n2"], nodes["n3"]
	fp := n1.in.Fingerprint()

	ownerOf := func(id int64) string {
		probe := event.New("A", 0, map[string]event.Value{"ID": event.Int(id), "V": event.Int(1)})
		owner, _ := n1.node.Placement().Owner(fp, n1.in.ShardSlot(probe))
		return owner
	}

	// Phase 1, healthy: everything delivers.
	ids1 := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	n1.node.OfferBatch(abcEvents(ids1, "A", "B", "C"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("phase 1 never quiesced")
	}

	// Phase 2: hard partition n1 ↔ n2 (both directions), detector too
	// slow to react — the forwarder has to discover it the hard way.
	ncs["n1"].Block(hostOf(n2))
	ncs["n2"].Block(hostOf(n1))
	ids2 := []int64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	lost := 0
	for _, id := range ids2 {
		if ownerOf(id) == "n2" {
			lost++
		}
	}
	n1.node.OfferBatch(abcEvents(ids2, "A", "B", "C"))
	if !n1.node.WaitQuiesce(30 * time.Second) {
		t.Fatal("phase 2 never quiesced — a partitioned link must drop, not stall")
	}
	if lost > 0 {
		if got := n1.node.Status().ForwardDrop; got != uint64(lost*3) {
			t.Errorf("router_dropped = %d, want %d (3 events × %d n2-owned ids)", got, lost*3, lost)
		}
		// The per-peer breakdown must attribute every drop to the n2 link.
		var n2drops uint64
		for _, pf := range n1.node.Status().PeerForwards {
			if pf.Name == "n2" {
				n2drops = pf.Dropped
			}
		}
		if n2drops != uint64(lost*3) {
			t.Errorf("per-peer dropped[n2] = %d, want %d", n2drops, lost*3)
		}
	}

	// Phase 3: heal, then new traffic flows everywhere again.
	ncs["n1"].Heal()
	ncs["n2"].Heal()
	ids3 := []int64{200, 201, 202, 203, 204, 205, 206, 207, 208, 209}
	n1.node.OfferBatch(abcEvents(ids3, "A", "B", "C"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("post-heal traffic never quiesced")
	}
	drainQueues(t, n1, n2, n3)

	want := len(ids1) + len(ids2) - lost + len(ids3)
	waitMatches(t, col, want)
	if total, dups := col.counts(); total != want || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, want)
	}
	// Blocked-before-send drops can never double-account: nothing was
	// delivered on those attempts.
	rep := requireConserved(t, n1, false)
	if rep.RouterDropped != uint64(lost*3) {
		t.Errorf("audit router_dropped = %d, want %d", rep.RouterDropped, lost*3)
	}
}

// The handoff ack is dropped after the import lands: the source must
// retry the ship under the same handoff ID and the target must replay
// the recorded ack instead of importing twice — the dropped-ack
// handoff is exactly the split-brain the hid closes.
func TestChaosNetPartitionDuringHandoff(t *testing.T) {
	names := []string{"n1", "n2"}
	ncs, transport := netChaosFleet(names)
	opts := fastRetries()
	opts.transport = transport
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 4, col, slowDetector(), opts)

	fp := nodes["n1"].in.Fingerprint()
	ownerName, _ := nodes["n1"].node.Placement().Owner(fp, 0)
	src := nodes[ownerName]
	var dst *tcNode
	for name, tn := range nodes {
		if name != ownerName {
			dst = tn
		}
	}
	idsFor := func(slot, count int) []int64 {
		var ids []int64
		for id := int64(0); len(ids) < count; id++ {
			probe := event.New("A", 0, map[string]event.Value{"ID": event.Int(id), "V": event.Int(1)})
			if src.in.ShardSlot(probe) == slot {
				ids = append(ids, id)
			}
		}
		return ids
	}

	ids := idsFor(0, 8)
	src.node.OfferBatch(abcEvents(ids, "A", "B"))
	drainQueues(t, src)

	// The ship is delivered, the ack is dropped; the retried ship must
	// be answered from the ack window, not re-imported.
	ncs[src.name].DropAfterSend(hostOf(dst), 1)
	spec := src.in.Spec()
	if err := src.node.MoveSlot(spec.Tenant, spec.Name, 0, dst.name); err != nil {
		t.Fatalf("MoveSlot under dropped ack: %v", err)
	}
	if got := src.node.Status().HandoffsOut; got != 1 {
		t.Fatalf("handoffs_out = %d, want 1", got)
	}
	if got := dst.node.Status().HandoffsIn; got != 1 {
		t.Fatalf("handoffs_in = %d, want 1 — the retried ship must NOT import twice", got)
	}
	// Both ends agree on the new owner AND its fencing epoch.
	se, de := src.node.Placement().Epoch(fp, 0), dst.node.Placement().Epoch(fp, 0)
	if se == 0 || se != de {
		t.Fatalf("epochs diverge after handoff: src=%d dst=%d, want equal and > 0", se, de)
	}
	for _, tn := range nodes {
		if owner, _ := tn.node.Placement().Owner(fp, 0); owner != dst.name {
			t.Fatalf("%s sees owner %s, want %s", tn.name, owner, dst.name)
		}
	}

	// Completing events still ingested at the source forward to the
	// target and finish the migrated partial matches exactly once.
	src.node.OfferBatch(abcEvents(ids, "C"))
	if !src.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("forward queue never quiesced")
	}
	drainQueues(t, dst)
	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, len(ids))
	}

	// Second act: a fully blocked target. The move must fail loudly and
	// leave the source authoritative and serving.
	slot2, ids2 := -1, []int64(nil)
	for s := 1; s < 4 && slot2 < 0; s++ {
		if owner, _ := src.node.Placement().Owner(fp, s); owner == src.name {
			slot2 = s
		}
	}
	if slot2 < 0 {
		t.Fatal("source owns no other slot; widen the shard count")
	}
	ids2 = idsFor(slot2, 6)
	src.node.OfferBatch(abcEvents(ids2, "A", "B"))
	drainQueues(t, src)
	ncs[src.name].Block(hostOf(dst))
	if err := src.node.MoveSlot(spec.Tenant, spec.Name, slot2, dst.name); err == nil {
		t.Fatal("MoveSlot succeeded across a blocked link")
	}
	if st := src.node.Status(); st.HandoffFailed != 1 || st.InFlight != 0 {
		t.Fatalf("after blocked handoff: failed=%d in_flight=%d, want 1/0", st.HandoffFailed, st.InFlight)
	}
	if owner, _ := src.node.Placement().Owner(fp, slot2); owner != src.name {
		t.Fatalf("ownership left the source (%s) despite the failed ship", owner)
	}
	ncs[src.name].Heal()
	src.node.OfferBatch(abcEvents(ids2, "C"))
	drainQueues(t, src)
	waitMatches(t, col, len(ids)+len(ids2))
	if total, dups := col.counts(); total != len(ids)+len(ids2) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, len(ids)+len(ids2))
	}
	requireConserved(t, src, false)
}

// An asymmetric partition — n1 loses its link TO n2 while every other
// link works — must not trigger a failover: n3 still sees n2 alive and
// vetoes n1's takeover. A flapping link additionally lands n2 in n1's
// flap quarantine instead of thrashing ownership. Nothing moves, so
// every placement stays epoch-converged throughout.
func TestDetectorAsymmetricPartition(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	ncs, transport := netChaosFleet(names)
	opts := fastRetries()
	opts.transport = transport
	det := DetectorConfig{
		Interval:      5 * time.Millisecond,
		Misses:        3,
		Policy:        runtime.RestartPolicy{BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond},
		FlapDeaths:    3,
		FlapWindow:    time.Minute,
		QuarantineFor: 150 * time.Millisecond,
		Seed:          1,
	}
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 8, col, det, opts)
	n1, n2, n3 := nodes["n1"], nodes["n2"], nodes["n3"]

	waitCond := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	takeovers := func() uint64 {
		return n1.node.Status().Takeovers + n2.node.Status().Takeovers + n3.node.Status().Takeovers
	}

	// One-way partition: n1 cannot reach n2; n2 and n3 are fine.
	ncs["n1"].Block(hostOf(n2))
	waitCond("n1 to declare n2 down", func() bool { return n1.node.Placement().IsDown("n2") })

	// n1 keeps trying to fail n2 over; n3's witness vote vetoes it every
	// 50ms. Give the veto loop plenty of chances to get it wrong.
	time.Sleep(300 * time.Millisecond)
	if got := takeovers(); got != 0 {
		t.Fatalf("asymmetric partition caused %d takeovers — dueling failover", got)
	}
	if n2.node.Placement().IsDown("n1") || n3.node.Placement().IsDown("n2") {
		t.Fatal("healthy links flipped down — the partition should be n1→n2 only")
	}

	// Ingest at n1 mid-partition: its degraded view re-routes or drops
	// n2's pairs; either way nothing is lost silently (audited below).
	midIDs := []int64{500, 501, 502, 503, 504, 505}
	n1.node.OfferBatch(abcEvents(midIDs, "A", "B", "C"))
	if !n1.node.WaitQuiesce(30 * time.Second) {
		t.Fatal("mid-partition ingest never quiesced")
	}

	// Flap the link: two more down transitions within the window push
	// n2 into n1's flap quarantine.
	for i := 0; i < 2; i++ {
		ncs["n1"].Unblock(hostOf(n2))
		waitCond("n1 to see n2 back up", func() bool { return !n1.node.Placement().IsDown("n2") })
		ncs["n1"].Block(hostOf(n2))
		waitCond("n1 to see n2 down again", func() bool { return n1.node.Placement().IsDown("n2") })
	}
	quarantined := func() bool {
		for _, p := range n1.node.Status().Peers {
			if p.Name == "n2" {
				return p.Quarantined
			}
		}
		return false
	}
	if !quarantined() {
		t.Error("three deaths inside the flap window did not quarantine n2 in n1's view")
	}

	// Heal. The quarantine holds n2 "down" in n1's view until it
	// expires, still without takeovers; then the view converges.
	ncs["n1"].Heal()
	waitCond("quarantine to expire and n2 to revive", func() bool { return !n1.node.Placement().IsDown("n2") })
	if got := takeovers(); got != 0 {
		t.Fatalf("%d takeovers during flap/quarantine — ownership must not thrash", got)
	}

	// Nothing ever moved, so every node's override map is empty and all
	// epochs sit at zero — converged by construction, and the audit
	// balances the mid-partition ingest.
	for _, tn := range []*tcNode{n1, n2, n3} {
		if _, ovs := tn.node.Placement().Overrides(); len(ovs) != 0 {
			t.Errorf("%s recorded %d overrides; none should exist", tn.name, len(ovs))
		}
	}
	drainQueues(t, n1, n2, n3)
	if _, dups := col.counts(); dups != 0 {
		t.Errorf("%d duplicate matches — split-brain processing", dups)
	}
	requireConserved(t, n1, false)
}

// A fully isolated node must not fail anyone over (no reachable
// witness), while the majority side confirms the death among
// themselves, adopts the isolated node's slots with bumped epochs, and
// keeps serving. At heal, the minority adopts the majority's
// higher-epoch overrides — convergence, not a duel.
func TestChaosNetPartitionDuringFailover(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	ncs, transport := netChaosFleet(names)
	opts := fastRetries()
	opts.transport = transport
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 8, col, fastDetectorConfig(), opts)
	n1, n2, n3 := nodes["n1"], nodes["n2"], nodes["n3"]
	fp := n1.in.Fingerprint()

	var n2slots []int
	for slot := 0; slot < 8; slot++ {
		if owner, _ := n1.node.Placement().Owner(fp, slot); owner == "n2" {
			n2slots = append(n2slots, slot)
		}
	}
	if len(n2slots) == 0 {
		t.Fatal("rendezvous gave n2 zero slots")
	}

	// Seed partial matches everywhere, n2 included, while healthy.
	ids := make([]int64, 24)
	for i := range ids {
		ids[i] = int64(i)
	}
	n1.node.OfferBatch(abcEvents(ids, "A", "B"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("seeding never quiesced")
	}
	drainQueues(t, n1, n2, n3)

	// Isolate n2 completely (both directions on every link).
	ncs["n1"].Block(hostOf(n2))
	ncs["n3"].Block(hostOf(n2))
	ncs["n2"].Block(hostOf(n1), hostOf(n3))

	// Majority side: n1 and n3 confirm the death with each other and
	// split n2's slots.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n1.node.Status().Takeovers+n3.node.Status().Takeovers == uint64(len(n2slots)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("majority takeover stalled: %d+%d of %d slots",
				n1.node.Status().Takeovers, n3.node.Status().Takeovers, len(n2slots))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Minority side: n2 sees BOTH peers down but can reach no witness —
	// it must adopt nothing.
	time.Sleep(200 * time.Millisecond)
	if got := n2.node.Status().Takeovers; got != 0 {
		t.Fatalf("isolated n2 performed %d takeovers — dueling failover", got)
	}
	for _, slot := range n2slots {
		o1, _ := n1.node.Placement().Owner(fp, slot)
		o3, _ := n3.node.Placement().Owner(fp, slot)
		if o1 != o3 || o1 == "n2" {
			t.Fatalf("slot %d: majority owners diverge (%s vs %s)", slot, o1, o3)
		}
		if e := n1.node.Placement().Epoch(fp, slot); e == 0 {
			t.Fatalf("slot %d adopted without an epoch bump", slot)
		}
	}

	// Completing events ingested on the majority side finish every
	// partial match — including those adopted from n2 — exactly once.
	n1.node.OfferBatch(abcEvents(ids, "C"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("completion batch never quiesced")
	}
	drainQueues(t, n1, n3)
	waitMatches(t, col, len(ids))
	if total, dups := col.counts(); total != len(ids) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, len(ids))
	}

	// Heal. The survivors push their placement to the revived n2, whose
	// zero-epoch view loses to every bumped override.
	for _, nc := range ncs {
		nc.Heal()
	}
	converged := func() bool {
		for _, slot := range n2slots {
			o1, _ := n1.node.Placement().Owner(fp, slot)
			o2, _ := n2.node.Placement().Owner(fp, slot)
			if o1 != o2 || n1.node.Placement().Epoch(fp, slot) != n2.node.Placement().Epoch(fp, slot) {
				return false
			}
		}
		return !n1.node.Placement().IsDown("n2") && !n2.node.Placement().IsDown("n1") &&
			!n2.node.Placement().IsDown("n3") && !n3.node.Placement().IsDown("n2")
	}
	deadline = time.Now().Add(15 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			t.Fatal("placement never converged after the heal")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The audit tolerates double accounting up to the counted router
	// drops (delivered-but-unacked batches that later dropped), but
	// silent loss is still zero.
	rep := requireConserved(t, n1, true)
	if rep.DoubleAccounted > rep.RouterDropped {
		t.Errorf("double accounting %d exceeds router drops %d", rep.DoubleAccounted, rep.RouterDropped)
	}
}

// Topology reload mid-stream: adding a node pins every slot to its
// incumbent owner (no silent reshuffle), the newcomer starts cold, and
// a planned MoveSlot is what hands it work — all without restarting
// the incumbents or dropping a single pair.
func TestTopologyReloadAddNodeMidStream(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	opts := fastRetries()
	opts.topoNames = map[string][]string{
		"n1": {"n1", "n2"},
		"n2": {"n1", "n2"},
		"n3": {"n1", "n2", "n3"}, // the joiner boots already knowing the new map
	}
	opts.deferStart = map[string]bool{"n3": true}
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 8, col, slowDetector(), opts)
	n1, n2, n3 := nodes["n1"], nodes["n2"], nodes["n3"]
	fp := n1.in.Fingerprint()

	// Mid-stream state on the 2-node cluster.
	ids := make([]int64, 16)
	for i := range ids {
		ids[i] = int64(i)
	}
	n1.node.OfferBatch(abcEvents(ids, "A", "B"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("seeding never quiesced")
	}
	drainQueues(t, n1, n2)

	before := map[int]string{}
	for slot := 0; slot < 8; slot++ {
		before[slot], _ = n1.node.Placement().Owner(fp, slot)
	}

	// Reload the incumbents to the 3-node topology. Removing self must
	// be refused; growing must pin all ownership in place.
	if err := n1.node.ReloadTopology(Topology{Nodes: n1.top.Nodes[1:]}); err == nil {
		t.Fatal("ReloadTopology accepted a topology without self")
	}
	if err := n1.node.ReloadTopology(n1.top); err != nil {
		t.Fatalf("n1 reload: %v", err)
	}
	if err := n2.node.ReloadTopology(n2.top); err != nil {
		t.Fatalf("n2 reload: %v", err)
	}
	if got := n1.node.Placement().Members(); len(got) != 3 {
		t.Fatalf("members after reload = %v, want 3", got)
	}
	for slot := 0; slot < 8; slot++ {
		if owner, _ := n1.node.Placement().Owner(fp, slot); owner != before[slot] {
			t.Fatalf("slot %d owner changed %s → %s on reload — adding a node must not reshuffle", slot, before[slot], owner)
		}
	}

	// Start the joiner; its placement pull adopts the pins.
	n3.node.Start()
	deadline := time.Now().Add(15 * time.Second)
	for {
		agree := true
		for slot := 0; slot < 8; slot++ {
			o3, _ := n3.node.Placement().Owner(fp, slot)
			if o3 != before[slot] {
				agree = false
				break
			}
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner never adopted the ownership pins")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Completing events still land on the incumbents; the cold joiner
	// gets nothing it has no state for.
	n1.node.OfferBatch(abcEvents(ids, "C"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("completion batch never quiesced")
	}
	drainQueues(t, n1, n2)
	waitMatches(t, col, len(ids))
	if got := n3.node.Status().ForwardedIn; got != 0 {
		t.Errorf("joiner received %d forwarded pairs before any slot moved to it", got)
	}

	// Now hand the joiner a slot the proper way and stream through it.
	slot := -1
	for s := 0; s < 8; s++ {
		if before[s] == "n1" {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("n1 owns nothing to move")
	}
	spec := n1.in.Spec()
	if err := n1.node.MoveSlot(spec.Tenant, spec.Name, slot, "n3"); err != nil {
		t.Fatalf("MoveSlot to joiner: %v", err)
	}
	var ids2 []int64
	for id := int64(1000); len(ids2) < 6; id++ {
		probe := event.New("A", 0, map[string]event.Value{"ID": event.Int(id), "V": event.Int(1)})
		if n1.in.ShardSlot(probe) == slot {
			ids2 = append(ids2, id)
		}
	}
	n1.node.OfferBatch(abcEvents(ids2, "A", "B", "C"))
	if !n1.node.WaitQuiesce(10 * time.Second) {
		t.Fatal("joiner traffic never quiesced")
	}
	drainQueues(t, n1, n2, n3)
	waitMatches(t, col, len(ids)+len(ids2))
	if total, dups := col.counts(); total != len(ids)+len(ids2) || dups != 0 {
		t.Errorf("matches = %d (dups %d), want %d/0", total, dups, len(ids)+len(ids2))
	}
	if got := n3.node.Status().ForwardedIn; got == 0 {
		t.Error("joiner still received nothing after MoveSlot")
	}
	requireConserved(t, n1, false)
}
