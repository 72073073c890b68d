package registry

import (
	"fmt"
	"path/filepath"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/event"
	"cepshed/internal/shed"
)

// Placement hooks: the cluster router owns the decision of WHERE an
// (event, query) pair runs, so it needs the registry to expose the
// routing inputs (the active queries, which shard slot an event hashes
// to) and the per-slot offer a forwarded batch ends in. The pairs of an
// ingest batch go through the one fan-out pass (Registry.OfferPlaced)
// with the router's Place callback.

// ActiveInstances returns the current route table's active (ready,
// unpaused) instances, sorted by id. The slice is shared with the
// immutable table — callers must not mutate it.
func (g *Registry) ActiveInstances() []*Instance { return g.route.Load().insts }

// ShardSlot returns the shard slot the instance's runtime would route
// the event to: a pure function of the event (runtime.ShardIndexFor),
// so offering the same event through OfferSlot with this slot
// reproduces exactly what the runtime's own routing would have done.
func (in *Instance) ShardSlot(e *event.Event) int { return in.rt.ShardIndexFor(e) }

// NumSlots returns the instance's shard count — the size of the
// placement space the cluster distributes across nodes.
func (in *Instance) NumSlots() int { return in.rt.NumShards() }

// OfferSlot runs one query's admission chain over a batch and offers
// what it admits to shard slot. Events must already be stamped (seq
// assigned by this node — the slot owner stamps, forwarded events
// arrive unstamped). A durable registry logs each admitted event as a T
// record tagged with the query and slot, its single target.
func (in *Instance) OfferSlot(slot int, events []*event.Event) OfferResult {
	g := in.reg
	f := g.getFan()
	g.offerMu.Lock()
	now, sh := time.Now(), f.add(in)
	for _, e := range events {
		f.local(e)
		if sh.admit(e, slot, now) && g.log != nil {
			g.batch.Tagged = append(g.batch.Tagged, checkpoint.Tagged{Tag: checkpoint.Tag{FP: in.fp, Shard: slot}, E: e})
		}
	}
	return g.finish(f, OfferResult{Events: len(events)})
}

// ReadSlot reads what the node whose state root is root made durable
// for one of this query's slots: the slot's newest snapshot and its
// records in that node's input log. A failover survivor adopts a dead
// peer's slot from it.
func (in *Instance) ReadSlot(root string, slot int) (*checkpoint.LoadResult, error) {
	res := checkpoint.LoadSnapshots(filepath.Join(root, in.StateDirName()), slot, in.rt.Fingerprint())
	if res.Ceded {
		return res, nil
	}
	routes := func(e *event.Event) bool { return in.subscribes(e.Type) && in.rt.ShardIndexFor(e) == slot }
	var err error
	res.Records, res.Marks, res.Torn, err = checkpoint.ReadLogTail(filepath.Join(root, logDir), logFP, checkpoint.Tag{FP: in.fp, Shard: slot}, routes)
	return res, err
}

// Dispositions reads the query's ledger, with the engine tier filled in
// from its runtime's per-shard counters.
func (in *Instance) Dispositions() shed.Counts {
	c, rs := in.disp.Counts(), in.rt.Snapshot()
	c[shed.Processed], c[shed.ShedInput], c[shed.ShedState], c[shed.Quarantined] =
		rs.EventsProcessed, rs.EventsShed, rs.DroppedPMs, rs.ShardQuarantined
	return c
}

// StateDirName returns the per-query state subdirectory name
// ("q-<fingerprint>"). Fingerprints depend only on the spec, so every
// node that registered the same query uses the same name — a failover
// survivor locates a dead peer's shard files under the peer's state
// root with this, and writes the ceded tombstone back into it.
func (in *Instance) StateDirName() string { return fmt.Sprintf("q-%016x", in.fp) }
