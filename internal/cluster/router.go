package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// Input is one decoded, unstamped event at the ingest edge, plus
// whether its source line carried an explicit timestamp.
type Input struct {
	E       *event.Event
	HasTime bool
}

// RouteResult accounts one routed batch. The embedded OfferResult
// covers the pairs this node processed locally; the cluster fields
// cover pairs that left the node or died at the router.
type RouteResult struct {
	registry.OfferResult
	// ForwardedPairs were queued for a remote owner.
	ForwardedPairs int
	// DroppedPairs died at the router: forward queue full or owner
	// unreachable. Part of the cluster loss accounting, never silent.
	DroppedPairs int
}

// maxRedirects bounds how many times one forward batch may re-route
// after ownership NACKs before it is dropped (counted): placement
// views converge by gossip, so a batch still bouncing after this many
// hops is caught in a partition, and unbounded bouncing would loop.
const maxRedirects = 3

// OfferBatch routes one ingest batch the cluster way: through the
// registry's fan-out pass (registry.OfferPlaced) with a Place callback
// that, for each (event, query) pair, computes the shard slot
// (deterministic hash — identical on every node) and looks up the
// slot's owner. The event's seq is stamped at its first pair, before any
// slot is computed, so a keyless query's slot hashes the stamped seq. A
// local pair runs here, on the shard that slot names; a remote one has
// the event's NDJSON encoding, which carries no seq, queued to the
// owner's forwarder (an event with no local pair leaves a gap in this
// node's seq space). Events with no explicit timestamp
// get their arrival time stamped at this edge first, so a forwarded
// event keeps its true arrival time rather than its delivery time at
// the owner.
func (n *Node) OfferBatch(batch []Input) RouteResult {
	var res RouteResult
	if len(batch) == 0 {
		return res
	}
	events := make([]*event.Event, len(batch))
	for i, item := range batch {
		if !item.HasTime {
			n.cfg.StampTime(item.E)
		}
		events[i] = item.E
	}
	var (
		cur  *event.Event // the event whose pairs are being placed
		line []byte       // cur's encoding, shared by every remote owner
	)
	drop := func(pl *peerLink) bool {
		res.DroppedPairs++
		n.forwardDrop.Add(1)
		if pl != nil {
			pl.dropped.Add(1)
		}
		return false
	}
	res.OfferResult = n.reg.OfferPlaced(events, func(in *registry.Instance, e *event.Event) bool {
		if e != cur {
			cur, line = e, nil
			n.cfg.StampSeq(e)
		}
		n.edgePairs.Add(1)
		fp := in.Fingerprint()
		slot := in.ShardSlot(e)
		owner, ok := n.place.Owner(fp, slot)
		if !ok {
			return drop(nil)
		}
		if owner == n.cfg.Self {
			return true
		}
		pl, ok := n.peer(owner)
		if !ok {
			return drop(nil)
		}
		if n.place.IsDown(owner) {
			return drop(pl)
		}
		if line == nil {
			line = runtime.EncodeEvent(e)
		}
		spec := in.Spec()
		select {
		case pl.q <- fwdItem{tenant: spec.Tenant, query: spec.Name, fp: fp, slot: slot, line: line}:
			n.inFlight.Add(1)
			res.ForwardedPairs++
			return false
		default:
			// Queue overflow: the loud, metered shed the retry queue
			// degrades to during a sustained partition.
			return drop(pl)
		}
	})
	return res
}

// forwarder drains one peer's queue, coalescing runs of items bound
// for the same (query, slot) into one numbered forward batch.
func (n *Node) forwarder(pl *peerLink) {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(int64(nameHash(pl.spec.Name))))
	var pending *fwdItem
	drain := func() {
		for {
			select {
			case <-pl.q:
				n.inFlight.Add(-1)
				n.forwardDrop.Add(1)
				pl.dropped.Add(1)
			default:
				return
			}
		}
	}
	for {
		var it fwdItem
		if pending != nil {
			it, pending = *pending, nil
		} else {
			select {
			case <-n.done:
				// Drain what's queued so the gauge and drop counters stay
				// conserved, then exit.
				drain()
				return
			case <-pl.stop:
				// Peer removed by a topology reload: same drain, the
				// drops are attributed to this link.
				drain()
				return
			case it = <-pl.q:
			}
		}
		body := append([]byte(nil), it.line...)
		body = append(body, '\n')
		count := 1
	coalesce:
		for count < 256 {
			select {
			case next := <-pl.q:
				if next.tenant != it.tenant || next.query != it.query || next.slot != it.slot {
					pending = &next
					break coalesce
				}
				body = append(body, next.line...)
				body = append(body, '\n')
				count++
			default:
				break coalesce
			}
		}
		n.sendBatch(pl, it, body, count, rng)
	}
}

// forwardNack is a receiver's 409 payload: its view of the slot's
// owner and fencing epoch, so the refused sender can converge instead
// of guessing.
type forwardNack struct {
	Owner string `json:"owner"`
	Epoch uint64 `json:"epoch"`
}

// sendBatch delivers one coalesced forward batch at most once. The
// batch gets a per-sender monotone ID; network errors retry the SAME
// peer with the SAME ID under capped, jittered backoff — the
// receiver's dedup window makes an ambiguous outcome (delivered but
// the ack was lost) safe to retry. Only an explicit ownership NACK
// (409) re-routes the batch, at most maxRedirects times. A batch that
// exhausts its retry or redirect budget, or whose target is declared
// down, is dropped and counted — loud, metered shedding, never
// silent loss.
func (n *Node) sendBatch(pl *peerLink, it fwdItem, body []byte, count int, rng *rand.Rand) {
	defer n.inFlight.Add(int64(-count))
	id := n.batchSeq.Add(1)
	drop := func(why string, args ...any) {
		n.forwardDrop.Add(uint64(count))
		pl.dropped.Add(uint64(count))
		n.cfg.Logf("cluster: forward batch %d (%d events) to %s dropped: %s", id, count, pl.spec.Name, fmt.Sprintf(why, args...))
	}
	attempts := 0
	redirected := 0
	for {
		if n.place.IsDown(pl.spec.Name) {
			drop("peer down")
			return
		}
		hdr := ForwardHeader{
			V:      ForwardFrameVersion,
			Sender: n.cfg.Self,
			Batch:  id,
			Tenant: it.tenant,
			Query:  it.query,
			Slot:   it.slot,
			Epoch:  n.place.Epoch(it.fp, it.slot),
			Count:  count,
		}
		frame := append(EncodeForwardHeader(hdr), body...)
		resp, err := n.post(pl.spec.Addr, "/cluster/forward", frame, "application/x-ndjson")
		if err == nil && resp.StatusCode == http.StatusOK {
			drainClose(resp)
			n.forwardedOut.Add(uint64(count))
			return
		}
		if err == nil && resp.StatusCode == http.StatusConflict {
			var nack forwardNack
			json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&nack)
			drainClose(resp)
			if nack.Owner != "" && nack.Epoch > 0 {
				n.place.AdoptOverride(SlotKey{FP: it.fp, Slot: it.slot}, nack.Owner, nack.Epoch)
			}
			redirected++
			if redirected > maxRedirects {
				drop("ownership unsettled after %d redirects", maxRedirects)
				return
			}
			n.redirects.Add(1)
			owner, ok := n.place.Owner(it.fp, it.slot)
			if !ok {
				drop("no live owner after NACK")
				return
			}
			if owner == n.cfg.Self {
				// The slot came home (failover or handoff landed it here
				// while the batch was in flight): accept it locally.
				if !n.acceptRedirectHome(it, body) {
					drop("query removed while the batch was in flight")
				}
				return
			}
			if owner == pl.spec.Name {
				// Our view already points at the refusing peer — it is the
				// one that is stale (e.g. it rebooted and lost the
				// override). Push our placement so it catches up, then
				// retry the same peer with the same batch ID.
				n.pushPlacement(pl.spec.Name)
				continue
			}
			next, ok := n.peer(owner)
			if !ok || n.place.IsDown(owner) {
				drop("NACK re-route target %s unavailable", owner)
				return
			}
			pl = next
			continue
		}
		// Network error, or a non-OK status we can only treat as
		// transient: retry the same peer with the same batch ID.
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = resp.Status
			drainClose(resp)
		}
		attempts++
		if attempts > n.cfg.ForwardRetries {
			drop("retries exhausted: %s", why)
			return
		}
		n.retriesTotal.Add(1)
		pl.retries.Add(1)
		backoff := n.cfg.RetryPolicy.Backoff(attempts, rng)
		t := time.NewTimer(backoff)
		select {
		case <-n.done:
			t.Stop()
			drop("node closing")
			return
		case <-pl.stop:
			t.Stop()
			drop("peer removed")
			return
		case <-t.C:
		}
	}
}

// acceptRedirectHome lands a forward batch whose slot moved back to
// this node while the batch was queued: decode and offer locally, as
// if it had never left. It reports false, having disposed of nothing,
// when the query is no longer registered here.
func (n *Node) acceptRedirectHome(it fwdItem, body []byte) bool {
	in, ok := n.reg.Get(it.tenant, it.query)
	if !ok {
		return false
	}
	or := n.offerForwarded(in, it.slot, bytes.NewReader(body))
	n.redirectLocal.Add(uint64(or.Events))
	return true
}

// offerForwarded decodes NDJSON event lines and offers them into one
// local slot with owner-side seq stamping. Shared by HandleForward and
// the redirect-home path. Undecodable lines are counted in
// recvBadLines; or.Events is how many events were stamped and offered.
func (n *Node) offerForwarded(in *registry.Instance, slot int, r io.Reader) registry.OfferResult {
	dec := runtime.NewLineDecoder(r, 0)
	var evs []*event.Event
	for {
		e, hasTime, err := dec.Next()
		if err != nil {
			var lerr *runtime.LineError
			if errors.As(err, &lerr) {
				n.recvBadLines.Add(1) // bad line: sender-side bug, skip rather than poison
				continue
			}
			if err != io.EOF {
				n.recvBadLines.Add(1)
			}
			break
		}
		if !hasTime {
			n.cfg.StampTime(e)
		}
		n.cfg.StampSeq(e)
		evs = append(evs, e)
	}
	return in.OfferSlot(slot, evs)
}

// seenBatch atomically checks-and-marks one (sender, batch) pair in
// the dedup window. It reports true when the batch was already marked
// — i.e. this is a retry of a batch we have (or are currently)
// processing. Marking happens BEFORE processing so a concurrent retry
// of an in-flight batch dedups rather than double-delivering.
func (n *Node) seenBatch(sender string, batch uint64) bool {
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	win := n.dedup[sender]
	if win == nil {
		win = &dedupWindow{
			seen: make(map[uint64]struct{}, n.cfg.DedupWindow),
			fifo: make([]uint64, n.cfg.DedupWindow),
		}
		n.dedup[sender] = win
	}
	if _, ok := win.seen[batch]; ok {
		return true
	}
	// Evict the slot we're about to reuse.
	if old := win.fifo[win.next]; old != 0 {
		delete(win.seen, old)
	}
	win.fifo[win.next] = batch
	win.next = (win.next + 1) % len(win.fifo)
	win.seen[batch] = struct{}{}
	return false
}

// HandleForward receives forwarded events: POST /cluster/forward. The
// body is a forward frame (header line + NDJSON events; see frame.go).
// Three fences run before any event is consumed:
//
//  1. Ownership: a slot this node does not own is refused (409) —
//     accepting it would split the slot's partial-match state across
//     nodes. The NACK carries this node's placement view so the
//     sender converges instead of guessing.
//  2. Epoch: a frame carrying a NEWER epoch than this node has seen
//     means ownership changed somewhere this node hasn't heard about
//     — accepting on a stale view risks double-accepting during an
//     asymmetric partition, so it is the same 409.
//  3. Dedup: a (sender, batch) pair already in the window is a retry
//     whose original delivery succeeded but whose ack was lost; it
//     acks 200 {"dup":true} WITHOUT processing, which is what makes
//     retrying ambiguous failures safe.
//
// The 200 ack reports the batch's door verdicts: accepted (delivered),
// rejected (refused at the door) and shed (skipped below the recovery
// floor); sendBatch does not parse it.
func (n *Node) HandleForward(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(r.Body)
	hdr, err := readForwardHeader(br)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	in, ok := n.reg.Get(hdr.Tenant, hdr.Query)
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	fp := in.Fingerprint()
	owner, epoch, ok := n.place.OwnerEpoch(fp, hdr.Slot)
	if !ok || owner != n.cfg.Self || hdr.Epoch > epoch {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(forwardNack{Owner: owner, Epoch: epoch})
		return
	}
	if hdr.Sender != "" && n.seenBatch(hdr.Sender, hdr.Batch) {
		n.dupBatches.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"dup":true}`+"\n")
		return
	}
	or := n.offerForwarded(in, hdr.Slot, br)
	n.forwardedIn.Add(uint64(or.Events))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"accepted":%d,"rejected":%d,"shed":%d}`+"\n",
		or.Deliveries, or.DoorRejected, or.FloorSkipped)
}

// urlEscape covers the characters query IDs may contain; IDs are
// validated at registration, so this is belt and braces.
func urlEscape(s string) string {
	out := make([]byte, 0, len(s))
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~' {
			out = append(out, c)
			continue
		}
		out = append(out, '%', hex[c>>4], hex[c&0xf])
	}
	return string(out)
}
