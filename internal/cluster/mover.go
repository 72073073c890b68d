package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/registry"
)

// Planned handoff protocol (source drives):
//
//	source: ExportShard(slot)      — drain the slot through its own
//	                                 input channel, flush its WAL,
//	                                 freeze it (stray arrivals are
//	                                 quarantined, counted)
//	source: EncodeHandoff          — CEPHOF01 frame: full shard state,
//	                                 fingerprint-bound to the query
//	source: POST /cluster/handoff  — ship to the target
//	target: DecodeHandoff          — reject on fingerprint/CRC mismatch
//	target: ImportShard            — restore into the EMPTY local slot,
//	                                 take a durable snapshot, THEN emit
//	                                 matches completed by tail replay
//	target: reply {max_seq}        — import is durable at this point
//	source: RetireShard(slot)      — remove local files (state now
//	                                 lives on the target; replaying it
//	                                 here would duplicate emissions)
//	both:   placement override     — (query, slot) → target, gossiped
//
// Any failure before the target's 200 leaves the source authoritative:
// ResumeShard unfreezes the slot and nothing moved. A crash of the
// target mid-import leaves its slot empty (ImportShard stages
// everything before the committing snapshot), so a retry is safe. The
// window where the target has acked but the source hasn't retired is
// the one unavoidable gap: a source crash there leaves both nodes with
// the state on disk, and the source's reboot would replay it — the
// ceded tombstone (failover) or Retire (planned) closes it as the very
// next step, so the window is one process-crash wide, documented in
// docs/CLUSTER.md.

// MoveSlot performs a planned handoff of one (query, slot) to target.
// Zero events are lost: the slot drains before export, and stray
// events arriving at the frozen source slot are quarantined and
// counted, never silently dropped.
func (n *Node) MoveSlot(tenant, query string, slot int, target string) error {
	n.moveMu.Lock()
	defer n.moveMu.Unlock()
	in, ok := n.reg.Get(tenant, query)
	if !ok {
		return fmt.Errorf("cluster: unknown query %s/%s", tenant, query)
	}
	spec, ok := n.cfg.Topology.Find(target)
	if !ok {
		return fmt.Errorf("cluster: unknown target node %q", target)
	}
	if target == n.cfg.Self {
		return fmt.Errorf("cluster: slot already here")
	}
	if n.place.IsDown(target) {
		return fmt.Errorf("cluster: target %q is down", target)
	}
	key := SlotKey{FP: in.Fingerprint(), Slot: slot}
	if owner, _ := n.place.Owner(key.FP, slot); owner != n.cfg.Self {
		return fmt.Errorf("cluster: slot owned by %q, not this node", owner)
	}

	st, err := in.Runtime().ExportShard(slot)
	if err != nil {
		return fmt.Errorf("cluster: export: %w", err)
	}
	h := &checkpoint.Handoff{Tenant: tenant, Query: query, Shard: slot, State: st}
	frame := checkpoint.EncodeHandoff(h, in.Runtime().Fingerprint())

	// hid makes the ship idempotent: a retry after an ambiguous
	// network failure (the import may or may not have landed) replays
	// the frame under the same ID, and a target that already imported
	// it answers with the recorded ack instead of failing on the
	// now-occupied slot. Without this, a dropped handoff ACK would
	// leave BOTH nodes owning live state — the handoff split brain.
	hid := fmt.Sprintf("%s-%d", n.cfg.Self, n.batchSeq.Add(1))
	n.inFlight.Add(1)
	resp, err := n.postHandoffRetried(spec, tenant, query, hid, frame)
	n.inFlight.Add(-1)
	if err != nil {
		// Nothing moved: unfreeze and stay authoritative.
		if rerr := in.Runtime().ResumeShard(slot); rerr != nil {
			n.cfg.Logf("cluster: resume after failed handoff: %v", rerr)
		}
		n.handoffFailed.Add(1)
		return fmt.Errorf("cluster: handoff to %s: %w", target, err)
	}

	if err := in.Runtime().RetireShard(slot); err != nil {
		n.cfg.Logf("cluster: retire after handoff: %v", err)
	}
	// Adopt the epoch the target minted for this move so both ends
	// agree on the fence; fall back to a local bump for old targets.
	if resp.Epoch > 0 {
		n.place.AdoptOverride(key, target, resp.Epoch)
	} else {
		n.place.SetOverride(key, target)
	}
	n.handoffsOut.Add(1)
	n.pushPlacement()
	return nil
}

// postHandoffRetried ships one handoff frame with bounded retries.
// Retries are safe because the hid makes the import idempotent; they
// stop early when the detector declares the target down.
func (n *Node) postHandoffRetried(spec NodeSpec, tenant, query, hid string, frame []byte) (*handoffResp, error) {
	rng := rand.New(rand.NewSource(int64(nameHash(spec.Name))))
	var lastErr error
	for attempt := 0; attempt <= n.cfg.ForwardRetries; attempt++ {
		if attempt > 0 {
			if n.place.IsDown(spec.Name) {
				return nil, fmt.Errorf("target declared down: %w", lastErr)
			}
			t := time.NewTimer(n.cfg.RetryPolicy.Backoff(attempt, rng))
			select {
			case <-n.done:
				t.Stop()
				return nil, fmt.Errorf("node closing: %w", lastErr)
			case <-t.C:
			}
		}
		resp, err := n.postHandoff(spec.Addr, tenant, query, hid, frame)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// A definite refusal (the target answered) will not change on a
		// retry; only ambiguous transport failures are worth repeating.
		var herr *handoffHTTPError
		if errors.As(err, &herr) {
			return nil, err
		}
		n.cfg.Logf("cluster: handoff %s to %s attempt %d: %v", hid, spec.Name, attempt+1, err)
	}
	return nil, lastErr
}

type handoffResp struct {
	MaxSeq uint64 `json:"max_seq"`
	HasSeq bool   `json:"has_seq"`
	// Epoch is the fencing epoch the target minted when it recorded
	// itself as the slot's owner.
	Epoch uint64 `json:"epoch,omitempty"`
}

// handoffHTTPError is a refusal the target actually sent — retrying
// cannot help, unlike a transport error where the outcome is unknown.
type handoffHTTPError struct{ msg string }

func (e *handoffHTTPError) Error() string { return e.msg }

func (n *Node) postHandoff(addr, tenant, query, hid string, frame []byte) (*handoffResp, error) {
	// Handoffs ship a full shard snapshot; give them a generous
	// multiple of the per-call timeout.
	hc := *n.hc
	hc.Timeout = 10 * n.cfg.HTTPTimeout
	path := fmt.Sprintf("/cluster/handoff?tenant=%s&query=%s&hid=%s", urlEscape(tenant), urlEscape(query), urlEscape(hid))
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(frame))
	req.ContentLength = int64(len(frame))
	req.Header.Set("Content-Type", "application/octet-stream")
	if n.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+n.cfg.AuthToken)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return nil, &handoffHTTPError{msg: fmt.Sprintf("%s: %s", resp.Status, body)}
	}
	var hr handoffResp
	if err := json.Unmarshal(body, &hr); err != nil {
		return nil, fmt.Errorf("bad handoff ack: %w", err)
	}
	return &hr, nil
}

// HandleHandoff receives a shipped shard: POST /cluster/handoff?
// tenant=&query=. The 200 reply means the state is DURABLE here (the
// import path snapshots before emitting anything), so the source may
// retire its copy.
func (n *Node) HandleHandoff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant, query := q.Get("tenant"), q.Get("query")
	hid := q.Get("hid")
	in, ok := n.reg.Get(tenant, query)
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	// A retried ship whose first import landed (but whose ack was
	// lost) replays the recorded ack instead of re-importing into the
	// now-occupied slot.
	if ack, ok := n.handoffAck(hid); ok {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ack)
		return
	}
	frame, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h, err := checkpoint.DecodeHandoff(frame, in.Runtime().Fingerprint())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	maxSeq, hasSeq, err := in.Runtime().ImportShard(h)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if hasSeq && n.cfg.BumpSeq != nil {
		n.cfg.BumpSeq(maxSeq + 1)
	}
	epoch := n.place.SetOverride(SlotKey{FP: in.Fingerprint(), Slot: h.Shard}, n.cfg.Self)
	n.handoffsIn.Add(1)
	ack := handoffResp{MaxSeq: maxSeq, HasSeq: hasSeq, Epoch: epoch}
	n.recordHandoffAck(hid, ack)
	go n.pushPlacement()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ack)
}

// handoffAcks remembers the last handoffAckWindow completed imports by
// hid so a retried ship is answered, not re-imported.
const handoffAckWindow = 128

func (n *Node) handoffAck(hid string) (handoffResp, bool) {
	if hid == "" {
		return handoffResp{}, false
	}
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	ack, ok := n.handoffAcks[hid]
	return ack, ok
}

func (n *Node) recordHandoffAck(hid string, ack handoffResp) {
	if hid == "" {
		return
	}
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	if n.handoffAcks == nil {
		n.handoffAcks = map[string]handoffResp{}
	}
	n.handoffAcks[hid] = ack
	n.handoffAckFIFO = append(n.handoffAckFIFO, hid)
	for len(n.handoffAckFIFO) > handoffAckWindow {
		delete(n.handoffAcks, n.handoffAckFIFO[0])
		n.handoffAckFIFO = n.handoffAckFIFO[1:]
	}
}

// HandleMove serves POST /cluster/move?tenant=&query=&slot=&target= —
// the admin entry point for a planned handoff off this node.
func (n *Node) HandleMove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	slot, err := strconv.Atoi(q.Get("slot"))
	if err != nil {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return
	}
	if err := n.MoveSlot(q.Get("tenant"), q.Get("query"), slot, q.Get("target")); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// failover runs when the detector declares a peer dead: for every
// (query, slot) the dead node owned whose NEW rendezvous owner is this
// node, adopt the slot from the dead node's state directory. Every
// survivor runs the same computation on the same inputs, so the dead
// node's slots partition across survivors with no coordination.
//
// Before adopting anything, the death must be CONFIRMED by a witness:
// in a cluster of three or more, at least one other reachable member
// has to agree the peer is down, and no reachable member may still see
// it up. An asymmetric partition (we lost our link to the peer, the
// rest of the cluster didn't) therefore never triggers a takeover —
// adopting a live node's shards while it is still serving them is the
// dueling-failover split brain. While the peer stays down unconfirmed,
// this loop re-checks; routing simply degrades in the meantime.
func (n *Node) failover(dead string) {
	for !n.confirmDeath(dead) {
		t := time.NewTimer(50 * time.Millisecond)
		select {
		case <-n.done:
			t.Stop()
			return
		case <-t.C:
		}
		if !n.place.IsDown(dead) {
			return // it came back; nothing to adopt
		}
	}
	if !n.place.IsDown(dead) {
		return
	}
	n.moveMu.Lock()
	defer n.moveMu.Unlock()
	deadSpec, ok := n.topology().Find(dead)
	if !ok {
		return
	}
	adopted := 0
	for _, in := range n.reg.ActiveInstances() {
		fp := in.Fingerprint()
		for slot := 0; slot < in.NumSlots(); slot++ {
			before, _ := n.place.OwnerIfUp(fp, slot, dead)
			if before != dead {
				continue
			}
			after, ok := n.place.Owner(fp, slot)
			if !ok || after != n.cfg.Self {
				continue
			}
			if err := n.takeover(in, deadSpec, slot); err != nil {
				n.cfg.Logf("cluster: takeover %s slot %d from %s: %v", in.Spec().ID(), slot, dead, err)
				continue
			}
			adopted++
		}
	}
	if adopted > 0 {
		n.cfg.Logf("cluster: adopted %d slots from dead peer %s", adopted, dead)
		n.pushPlacement()
	}
}

// takeover adopts one slot from a dead peer's state directory (shared
// filesystem). Sequence of operations, ordered for crash safety:
//
//  1. Load the dead node's snapshot + WAL tail for the slot. This is
//     everything the dead node made durable; whatever sat unflushed in
//     its WAL buffer (≤ one flush group) is the loss bound.
//  2. ImportShard locally: restore the snapshot, replay the tail with
//     match suppression (M records mark matches the dead node already
//     DELIVERED — flush-before-deliver guarantees every delivered
//     match has a flushed record — so replay completes their partial
//     matches without re-emitting them), take a durable snapshot, then
//     emit only the matches the dead node never delivered.
//  3. Write the ceded tombstone into the dead node's directory. Only
//     after our snapshot: the tombstone tells the rebooting node to
//     discard those files, so it must never exist while ours is the
//     only volatile copy.
func (n *Node) takeover(in *registry.Instance, dead NodeSpec, slot int) error {
	h := &checkpoint.Handoff{Tenant: in.Spec().Tenant, Query: in.Spec().Name, Shard: slot}
	var dir string
	if dead.StateDir != "" {
		dir = filepath.Join(dead.StateDir, in.StateDirName())
		res, err := in.ReadSlot(dead.StateDir, slot)
		if err != nil {
			return fmt.Errorf("load dead store: %w", err)
		}
		h.State = res.State
		h.Tail = append(res.Records, res.Marks...)
		if res.CorruptSnaps > 0 || res.Torn {
			n.cfg.Logf("cluster: takeover %s slot %d: corrupt_snaps=%d torn_wal=%v (expected after SIGKILL)",
				in.Spec().ID(), slot, res.CorruptSnaps, res.Torn)
		}
	}
	maxSeq, hasSeq, err := in.Runtime().ImportShard(h)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	if hasSeq && n.cfg.BumpSeq != nil {
		n.cfg.BumpSeq(maxSeq + 1)
	}
	if dir != "" {
		if err := checkpoint.CedeShard(dir, slot); err != nil {
			n.cfg.Logf("cluster: cede tombstone %s slot %d: %v", in.Spec().ID(), slot, err)
		}
	}
	n.place.SetOverride(SlotKey{FP: in.Fingerprint(), Slot: slot}, n.cfg.Self)
	n.takeovers.Add(1)
	return nil
}

// confirmDeath collects death-confirmation votes for a peer this
// node's detector declared dead. It returns true only when every
// OTHER member it can reach agrees the peer is down AND at least one
// such witness exists. A two-node cluster has no possible witness, so
// the local verdict stands alone there (documented limitation: a
// 2-node asymmetric partition can still duel; epoch fencing bounds
// the damage and converges ownership at heal).
func (n *Node) confirmDeath(dead string) bool {
	var others []NodeSpec
	for _, spec := range n.topology().Nodes {
		if spec.Name != n.cfg.Self && spec.Name != dead {
			others = append(others, spec)
		}
	}
	if len(others) == 0 {
		return true
	}
	witnesses := 0
	for _, spec := range others {
		up, err := n.peerView(spec.Addr, dead)
		if err != nil {
			continue // unreachable: abstains
		}
		if up {
			n.cfg.Logf("cluster: failover of %s vetoed: %s still sees it up", dead, spec.Name)
			return false
		}
		witnesses++
	}
	if witnesses == 0 {
		// Nobody reachable: WE may be the partitioned side. Adopting a
		// possibly-live node's shards on local evidence alone is the
		// split brain this check exists to prevent.
		n.cfg.Logf("cluster: failover of %s deferred: no reachable witness", dead)
		return false
	}
	return true
}

// peerView asks one member for its detector's view of a third node.
func (n *Node) peerView(addr, peer string) (up bool, err error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/cluster/peerview?peer="+urlEscape(peer), nil)
	if err != nil {
		return false, err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("peerview: %s", resp.Status)
	}
	var v struct {
		Up bool `json:"up"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&v); err != nil {
		return false, err
	}
	return v.Up, nil
}

// WaitQuiesce blocks until the forward queues and in-transit handoffs
// drain (or the timeout elapses) — the conservation tests' barrier.
func (n *Node) WaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.inFlight.Load() == 0 {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n.inFlight.Load() == 0
}
