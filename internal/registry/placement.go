package registry

import (
	"fmt"
	"path/filepath"

	"cepshed/internal/checkpoint"

	"cepshed/internal/event"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// Placement hooks: the cluster router owns the decision of WHERE an
// (event, query) pair runs, so it needs the registry to expose the
// routing inputs (which queries subscribe to a type, which shard slot
// an event hashes to) and the per-slot offer the fan-out path itself
// ends in. Everything here stays lock-free on the hot path: route-table
// loads and atomics only.

// RouteEach calls visit for every active (ready, unpaused) instance
// subscribed to the event's type and returns the number visited. A
// zero return means the event is unrouted, and has been counted so.
func (g *Registry) RouteEach(e *event.Event, visit func(in *Instance)) int {
	refs := g.subscribers(g.route.Load(), e)
	for _, ref := range refs {
		visit(ref.inst)
	}
	return len(refs)
}

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
// what it admits to shard slot — slot < 0: each event to the shard its
// key hashes to. Events must already be stamped (seq assigned by this
// node — the slot owner stamps, forwarded events arrive unstamped). A
// durable registry logs the admitted events tagged with the query and
// slot, their single target (see Registry.OfferShares). The events
// slice is filtered in place; callers must own it.
func (in *Instance) OfferSlot(slot int, events []*event.Event) OfferResult {
	res := in.reg.OfferShares([]Share{{In: in, Slot: slot, Events: events}}, nil)
	res.Events = len(events)
	return res
}

// door is the registry half of the query's admission chain: the
// recovery floor, then the runtime door's verdict for shard slot (< 0:
// each event's key), taken once for the batch so that what a durable
// registry logs is what it offers. It counts the pairs it refuses in
// the query's ledger and returns the rest, filtered in place.
func (in *Instance) door(slot int, events []*event.Event) ([]*event.Event, OfferResult) {
	var res OfferResult
	kept := events[:0]
	for _, e := range events {
		if in.admit(e) == shed.FloorSkipped {
			res.FloorSkipped++
		} else {
			kept = append(kept, e)
		}
	}
	if n := len(kept); n > 0 {
		kept = in.rt.Door(slot, kept)
		res.DoorRejected = n - len(kept)
	}
	in.disp.Add(shed.Rejected, res.DoorRejected)
	in.disp.Add(shed.FloorSkipped, res.FloorSkipped)
	return kept, res
}

// deliver sends c, the claim of n events that passed door, and counts
// their dispositions.
func (in *Instance) deliver(c *runtime.Claim, n int) OfferResult {
	var res OfferResult
	res.Deliveries = in.rt.Deliver(c)
	res.DoorRejected = n - res.Deliveries
	in.disp.Add(shed.Delivered, res.Deliveries)
	in.disp.Add(shed.Rejected, res.DoorRejected)
	return res
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
