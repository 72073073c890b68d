package cluster

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/event"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

const keylessText = `PATTERN SEQ(A a, B b) WITHIN 8ms`

// inputRecords lists the input records — E, T and R, in log order — of
// the registry input log under root. Shard-written records (matches,
// quarantine skips) interleave with them as the workers run, so they
// are left out.
func inputRecords(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	if _, err := checkpoint.ReadLog(filepath.Join(root, "log"), checkpoint.Fingerprint("registry", "input-log"), func(r checkpoint.Record) {
		switch r.Kind {
		case checkpoint.RecEvent, checkpoint.RecTagged:
			out = append(out, fmt.Sprintf("%c %d %v %s %d", r.Kind, r.Seq, r.Tag, r.Event.Type, r.Event.Int("ID")))
		case checkpoint.RecRefused:
			out = append(out, fmt.Sprintf("%c %d %x", r.Kind, r.Seq, r.Tag.FP))
		}
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// The registry's OfferBatch and the cluster router are two callers of
// one fan-out pass; with every slot placed on the ingest node they must
// be indistinguishable. Twin durable registries serve a keyed and a
// keyless query on two shards each. Both are fed the same prefix and
// restarted, so each query recovers a sequence floor; two poison events
// then fail the keyed query's shard 0. The measured stream — its first
// pairs below the floors, a quarter of its events of a type no query
// subscribes to — goes to one twin through Registry.OfferBatch, with
// seqs assigned up front, and to the other through Node.OfferBatch of a
// two-node cluster whose overrides pin every slot to the ingest node,
// stamping the same seqs as it places. Results, ledgers and input-log
// records must be identical.
func TestOnePassRegistryAndRouterAgree(t *testing.T) {
	const prefix = 60
	// stream builds events from seq on: A, B, C over many keys, with every
	// fourth event a Z no query subscribes to (unstamped: the router stamps
	// only events with a pair).
	stream := func(seq uint64, n int, id func(i int) int64) []*event.Event {
		out := make([]*event.Event, n)
		for i := range out {
			typ := []string{"A", "B", "C", "Z"}[i%4]
			e := event.New(typ, event.Time(int64(seq)*int64(event.Microsecond)), map[string]event.Value{"ID": event.Int(id(i)), "V": event.Int(1)})
			if typ != "Z" {
				e.Seq = seq
				seq++
			}
			out[i] = e
		}
		return out
	}
	specs := []registry.QuerySpec{
		{Tenant: "t", Name: "a-keyed", Query: q1Text},
		{Tenant: "t", Name: "b-keyless", Query: keylessText},
	}
	open := func(dir string) (*registry.Registry, []*registry.Instance) {
		g, err := registry.Open(registry.Config{
			Shards:   2,
			StateDir: dir,
			Arbiter:  registry.ArbiterConfig{Disabled: true},
			TuneRuntime: func(spec registry.QuerySpec, rc *runtime.Config) {
				rc.Restart = runtime.RestartPolicy{BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond, MaxRestarts: 1, Window: time.Minute}
				if spec.Name == specs[0].Name {
					rc.BeforeProcess = func(_ int, e *event.Event) {
						if e.Int("V") == 99 {
							panic("one-pass twins: poison")
						}
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		g.WaitRecovered()
		var ins []*registry.Instance
		for _, spec := range specs {
			in, ok := g.Get(spec.Tenant, spec.Name)
			if !ok {
				if in, err = g.Add(spec); err != nil {
					t.Fatal(err)
				}
			}
			in.WaitReady()
			ins = append(ins, in)
		}
		return g, ins
	}

	root := t.TempDir()
	type twin struct {
		dir string
		g   *registry.Registry
		ins []*registry.Instance
	}
	twins := []*twin{{dir: filepath.Join(root, "registry")}, {dir: filepath.Join(root, "router")}}
	key := func(i int) int64 { return int64(i % 89) }
	for _, tw := range twins {
		tw.g, _ = open(tw.dir)
		tw.g.OfferBatch(stream(0, prefix*4/3, key)) // seqs 0..prefix-1
		tw.g.Close()
		tw.g, tw.ins = open(tw.dir)
	}
	floor := twins[0].ins[0].Runtime().RecoveryInfo().MaxSeq + 1
	if floor < 10 {
		t.Fatalf("keyed query recovered floor %d; the restart restored nothing", floor)
	}

	// Two poison events on the keyed query's shard 0 trip its breaker.
	var poison []int64
	for id := int64(1000); len(poison) < 2; id++ {
		probe := event.New("A", 0, map[string]event.Value{"ID": event.Int(id)})
		if twins[0].ins[0].ShardSlot(probe) == 0 {
			poison = append(poison, id)
		}
	}
	for _, tw := range twins {
		ps := stream(floor, 2, func(i int) int64 { return poison[i] })
		for _, e := range ps {
			e.Type, e.Attrs["V"] = "A", event.Int(99)
		}
		tw.g.OfferBatch(ps)
		for deadline := time.Now().Add(20 * time.Second); tw.ins[0].Runtime().Snapshot().FailedShards != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: keyed query's shard 0 never failed: %+v", tw.dir, tw.ins[0].Runtime().Snapshot())
			}
		}
	}

	// The measured stream, seqs from 10 below the floor.
	first := floor - 10
	want := stream(first, 320, key)
	viaRegistry := twins[0].g.OfferBatch(want)

	next := first
	node, err := New(Config{
		Self:      "n1",
		Topology:  Topology{Nodes: []NodeSpec{{Name: "n1", Addr: "127.0.0.1:1", StateDir: twins[1].dir}, {Name: "n2", Addr: "127.0.0.1:2", StateDir: filepath.Join(root, "n2")}}},
		Registry:  twins[1].g,
		StampTime: func(*event.Event) {},
		StampSeq:  func(e *event.Event) { e.Seq = next; next++ },
		Detector:  slowDetector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for _, in := range twins[1].ins {
		for slot := 0; slot < in.NumSlots(); slot++ {
			node.Placement().SetOverride(SlotKey{FP: in.Fingerprint(), Slot: slot}, "n1")
		}
	}
	var batch []Input
	for _, e := range stream(first, 320, key) {
		e.Seq = 0
		batch = append(batch, Input{E: e, HasTime: true})
	}
	viaRouter := node.OfferBatch(batch)
	for i, item := range batch {
		if item.E.Type != "Z" && item.E.Seq != want[i].Seq {
			t.Fatalf("router stamped event %d with seq %d, the registry twin carries %d", i, item.E.Seq, want[i].Seq)
		}
	}

	if viaRouter.OfferResult != viaRegistry || viaRouter.ForwardedPairs != 0 || viaRouter.DroppedPairs != 0 {
		t.Errorf("results differ: registry %+v, router %+v", viaRegistry, viaRouter)
	}
	r := viaRegistry
	if r.FloorSkipped == 0 || r.DoorRejected == 0 || r.Deliveries == 0 || r.Unrouted != 80 {
		t.Errorf("the stream left a verdict unexercised: %+v", r)
	}
	if a, b := twins[0].g.Dispositions(), twins[1].g.Dispositions(); a != b {
		t.Errorf("registry ledgers differ: registry twin %v, router twin %v", a, b)
	}
	for i := range specs {
		a, b := twins[0].ins[i].Dispositions(), twins[1].ins[i].Dispositions()
		for _, d := range []shed.Disposition{shed.Delivered, shed.Rejected, shed.FloorSkipped} {
			if a[d] != b[d] {
				t.Errorf("%s: disposition %d: registry twin %d, router twin %d", specs[i].Name, d, a[d], b[d])
			}
		}
	}

	for _, tw := range twins {
		tw.g.Close()
	}
	a, b := inputRecords(t, twins[0].dir), inputRecords(t, twins[1].dir)
	if len(a) != len(b) {
		t.Fatalf("input logs differ in length: registry twin %d records, router twin %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("input logs differ at record %d: registry twin %q, router twin %q", i, a[i], b[i])
		}
	}
}

// TestRouterLogsKeylessPairByKey routes a batch through a durable
// two-node cluster whose ingest node owns every slot of a keyed query
// (Q1) and of a keyless one that sorts first in the subscriber walk.
// The router stamps each event's seq at its first pair, before it
// computes the keyless query's slot from that seq, so the keyless
// query's pairs spread over its slots and each runs on the shard its
// key (the seq) picks: every event is logged as one E record, with no
// T or R record beside it.
func TestRouterLogsKeylessPairByKey(t *testing.T) {
	col := newMatchCollector()
	nodes := newTestCluster(t, []string{"n1", "n2"}, 4, col, slowDetector())
	var kl *registry.Instance
	for _, tn := range nodes {
		in, err := tn.reg.Add(registry.QuerySpec{Tenant: "t0", Name: "keyless", Query: keylessText})
		if err != nil {
			t.Fatal(err)
		}
		in.WaitReady()
		if tn.name == "n1" {
			kl = in
		}
	}
	ingest := nodes["n1"]
	for _, in := range []*registry.Instance{kl, ingest.in} {
		for slot := 0; slot < in.NumSlots(); slot++ {
			ingest.node.Placement().SetOverride(SlotKey{FP: in.Fingerprint(), Slot: slot}, "n1")
		}
	}
	var ids []int64
	for id := int64(0); id < 40; id++ {
		ids = append(ids, id)
	}
	batch := abcEvents(ids, "A", "B", "C")
	ingest.node.OfferBatch(batch)
	drainQueues(t, ingest)
	pairs := uint64(2 * len(ids)) // the keyless query takes each id's A and B
	var slots int
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		snap := kl.Runtime().Snapshot()
		if snap.EventsIn == pairs {
			slots = 0
			for _, ss := range snap.Shards {
				if ss.EventsIn > 0 {
					slots++
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the keyless query took %d events, want %d", snap.EventsIn, pairs)
		}
	}
	if slots < 2 {
		t.Errorf("the keyless query's %d pairs ran on %d of its %d slots, want them spread over at least 2", pairs, slots, kl.NumSlots())
	}
	ingest.kill()
	var e, other int
	if _, err := checkpoint.ReadLog(filepath.Join(ingest.top.Nodes[0].StateDir, "log"), checkpoint.Fingerprint("registry", "input-log"), func(r checkpoint.Record) {
		switch r.Kind {
		case checkpoint.RecEvent:
			e++
		case checkpoint.RecTagged, checkpoint.RecRefused:
			other++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if e != len(batch) || other != 0 {
		t.Fatalf("ingest log: %d E and %d T or R records; want %d E (one per event) and no other", e, other, len(batch))
	}
}
