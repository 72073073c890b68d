package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// A degraded node has no router gate: while a peer is down, a batch
// offered at a queue fill past the ladder's high-water mark but short of
// its reject mark is delivered whole, and only the query's ladder reacts
// (x > 0, so ρI/ρS decide what goes). The conservation audit closes
// once the held worker drains the queue.
func TestClusterDegradedShedsThroughLadder(t *testing.T) {
	const queueLen = 64
	var hold atomic.Bool
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	nodes := newTestClusterOpts(t, []string{"n1", "n2"}, 1, newMatchCollector(), slowDetector(), tcOpts{
		tuneRuntime: func(node string, rc *runtime.Config) {
			if node != "n1" {
				return
			}
			rc.QueueLen = queueLen
			rc.Bound = time.Hour // ladder on; queue fill alone drives it
			rc.BeforeProcess = func(int, *event.Event) {
				if hold.Load() {
					select {
					case parked <- struct{}{}:
					default:
					}
					<-release
				}
			}
		},
	})
	var once sync.Once
	unhold := func() { once.Do(func() { hold.Store(false); close(release) }) }
	defer unhold() // a failed check must not leave the worker parked for Close
	n1 := nodes["n1"]
	n1.node.Placement().SetDown("n2", true)
	if !n1.node.Degraded() {
		t.Fatal("n1 not degraded with n2 down")
	}

	nextID := int64(0)
	offer := func(k int) RouteResult {
		ids := make([]int64, k)
		for i := range ids {
			ids[i] = nextID
			nextID++
		}
		return n1.node.OfferBatch(abcEvents(ids, "A"))
	}
	hold.Store(true)
	offer(1)
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("n1's worker never parked")
	}
	const prefill = queueLen * 8 / 10 // fill 0.8: inside the ladder's admission band
	if res := offer(prefill); res.Deliveries != prefill {
		t.Fatalf("prefill delivered %d of %d pairs: %+v", res.Deliveries, prefill, res)
	}
	rt := n1.in.Runtime()
	sh := rt.Snapshot().Shards[0]
	if fill := float64(sh.QueueDepth) / float64(sh.QueueCap); fill < 0.75 || fill >= 0.95 {
		t.Fatalf("queue fill %.3f, want in [0.75, 0.95)", fill)
	}

	const k = 8
	res := offer(k)
	if res.Deliveries != k || res.DoorRejected != 0 || res.DroppedPairs != 0 {
		t.Errorf("degraded offer at fill 0.8: delivered %d of %d (rejected %d, dropped %d), want all", res.Deliveries, k, res.DoorRejected, res.DroppedPairs)
	}
	if lvl := rt.DegradationLevel(); lvl != runtime.LevelAdmission {
		t.Errorf("ladder level %d, want LevelAdmission (%d)", lvl, runtime.LevelAdmission)
	}
	if x := rt.Excess(); x <= 0 {
		t.Errorf("ladder excess x = %g, want > 0 past the high-water mark", x)
	}

	unhold()
	drainQueues(t, n1)
	rep := n1.node.AuditCluster()
	if !rep.OK {
		t.Errorf("audit not OK: %v", rep.Problems)
	}
	if want := uint64(1 + prefill + k); rep.EdgePairs != want {
		t.Errorf("audit edge_pairs %d, want %d", rep.EdgePairs, want)
	}
}

// A forward batch is NACKed home after its query was removed here: the
// whole batch — every pair edge_pairs counted, not one — must land in
// router_dropped. Removing the query also takes its ledger out of
// /stats; the pairs it delivered before must stay in the audit.
func TestChaosNetRedirectHomeAfterQueryRemoved(t *testing.T) {
	names := []string{"n1", "n2"}
	ncs, transport := netChaosFleet(names)
	col := newMatchCollector()
	nodes := newTestClusterOpts(t, names, 8, col, slowDetector(), tcOpts{
		transport:      transport,
		forwardRetries: 5000,
		retryPolicy:    runtime.RestartPolicy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
	})
	n1, n2 := nodes["n1"], nodes["n2"]
	fp := n1.in.Fingerprint()

	// The batch leaves n1's edge but cannot reach n2 yet.
	ncs["n1"].Block(hostOf(n2))
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(i)
	}
	batch := abcEvents(ids, "A", "B", "C")
	remote := 0
	for _, it := range batch {
		if owner, _ := n1.node.Placement().Owner(fp, n1.in.ShardSlot(it.E)); owner == "n2" {
			remote++
		}
	}
	if remote == 0 || remote == len(batch) {
		t.Fatalf("want pairs on both nodes, n2 owns %d of %d", remote, len(batch))
	}
	res := n1.node.OfferBatch(batch)
	if res.ForwardedPairs != remote || res.Deliveries != len(batch)-remote {
		t.Fatalf("offer: forwarded %d delivered %d, want %d / %d", res.ForwardedPairs, res.Deliveries, remote, len(batch)-remote)
	}
	deadline := time.Now().Add(20 * time.Second)
	for n1.node.Status().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forwarder never started retrying the blocked link")
		}
		time.Sleep(time.Millisecond)
	}

	// Between the send and the NACK: the query goes away at n1, and n2
	// comes to believe every slot it owned is n1's.
	if err := n1.reg.Remove("t1", "abc", false); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < n1.in.NumSlots(); slot++ {
		if owner, _ := n2.node.Placement().Owner(fp, slot); owner == "n2" {
			n2.node.Placement().SetOverride(SlotKey{FP: fp, Slot: slot}, "n1")
		}
	}
	ncs["n1"].Heal()
	if !n1.node.WaitQuiesce(20 * time.Second) {
		t.Fatal("forward queue never quiesced")
	}

	rep := n1.node.AuditCluster()
	if rep.SilentLoss != 0 || rep.DoubleAccounted != 0 {
		t.Errorf("audit: silent_loss %d double_accounted %d, want 0/0 (%v)", rep.SilentLoss, rep.DoubleAccounted, rep.Problems)
	}
	if rep.EdgePairs != uint64(len(batch)) || rep.RouterDropped != uint64(remote) {
		t.Errorf("audit: edge_pairs %d router_dropped %d, want %d / %d", rep.EdgePairs, rep.RouterDropped, len(batch), remote)
	}
	if st := n1.node.Status(); st.Redirects == 0 || st.ForwardDrop != uint64(remote) {
		t.Errorf("n1: redirects %d forward_dropped %d, want >0 / %d", st.Redirects, st.ForwardDrop, remote)
	}
	if got := n1.node.LocalLedger().Delivered; got != uint64(len(batch)-remote) {
		t.Errorf("n1 ledger lost the removed query's deliveries: delivered %d, want %d", got, len(batch)-remote)
	}
}

// Removing a query while a producer keeps offering — first at the node
// it forwards to, then at the ingest node itself — loses nothing
// silently: pairs caught mid-removal are door-rejected or router-dropped
// (counted), and what the query delivered before it went stays in each
// node's ledger.
func TestClusterAuditSurvivesQueryRemoveMidStream(t *testing.T) {
	opts := fastRetries()
	nodes := newTestClusterOpts(t, []string{"n1", "n2"}, 4, newMatchCollector(), slowDetector(), opts)
	n1, n2 := nodes["n1"], nodes["n2"]

	var offered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(0); ; id += 8 {
			select {
			case <-stop:
				return
			default:
			}
			ids := []int64{id, id + 1, id + 2, id + 3, id + 4, id + 5, id + 6, id + 7}
			n1.node.OfferBatch(abcEvents(ids, "A", "B", "C"))
			offered.Add(1)
		}
	}()
	waitOffers := func(n int64) {
		t.Helper()
		target, deadline := offered.Load()+n, time.Now().Add(20*time.Second)
		for offered.Load() < target {
			if time.Now().After(deadline) {
				close(stop)
				t.Fatal("producer stalled")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	waitOffers(20)
	for deadline := time.Now().Add(20 * time.Second); n2.reg.Dispositions()[shed.Delivered] == 0; {
		if time.Now().After(deadline) {
			close(stop)
			t.Fatal("no forward ever reached n2")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := n2.reg.Remove("t1", "abc", false); err != nil {
		t.Error(err)
	}
	waitOffers(20)
	if err := n1.reg.Remove("t1", "abc", false); err != nil {
		t.Error(err)
	}
	waitOffers(5)
	close(stop)
	wg.Wait()
	if !n1.node.WaitQuiesce(30 * time.Second) {
		t.Fatal("forward queue never quiesced")
	}

	rep := n1.node.AuditCluster()
	if rep.SilentLoss != 0 || rep.DoubleAccounted != 0 {
		t.Errorf("audit: silent_loss %d double_accounted %d, want 0/0 (%v)", rep.SilentLoss, rep.DoubleAccounted, rep.Problems)
	}
	for _, l := range rep.Nodes {
		if l.Delivered == 0 {
			t.Errorf("%s: the removed query's deliveries left the ledger", l.Node)
		}
	}
	if n1.node.LocalLedger().Unrouted == 0 {
		t.Error("events offered after the last removal were not counted unrouted")
	}
}
