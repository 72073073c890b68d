package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"cepshed/internal/shed"
)

// Cluster-wide conservation audit.
//
// Every (event, query) pair that enters the cluster at some node's
// ingest edge must end in exactly one counted disposition somewhere in
// the cluster: delivered into an engine, rejected at a shard door,
// skipped below a recovery floor, dropped at the router (queue
// overflow, dead peer, retries exhausted), or discarded as an
// undecodable forwarded line. The audit sums each node's ledger and
// checks
//
//	Σ edge_pairs == Σ dispositions + Σ in_flight ± double_accounted
//
// with two tolerances, both one-sided:
//
//   - SilentLoss (edge pairs nobody accounted for) must ALWAYS be 0.
//     Any positive value is a bug: an event vanished without a counter.
//   - DoubleAccounted (dispositions exceeding edge pairs) is bounded by
//     Σ router_dropped_total. It is the price of at-least-once
//     accounting under partitions: a forward can be delivered (counted
//     at the receiver) while its ack is lost, and if every retry also
//     fails the sender eventually counts the same pairs as dropped.
//     The pair is then counted twice — visibly, as a drop that did not
//     actually lose data — never zero times.
//
// The engine tier is checked only when it can be exact: WAL recovery
// replay and handoff imports re-count events a source node already
// counted (by design — each node's identity stays closed), so a
// cluster that restarted or migrated state reports the engine check
// as skipped rather than asserting a stale identity.

// Ledger is one node's slice of the cluster conservation state. Router
// tier counters come from the Node, the door tier from the registry's
// disposition ledger (docs/ROBUSTNESS.md), engine tier counters from
// the registry snapshot. Evaluate is a pure function over ledgers, so a
// test can include a dead node's last pre-kill ledger.
type Ledger struct {
	Node string `json:"node"`

	// Router tier: pair creation and terminal dispositions.
	EdgePairs     uint64 `json:"edge_pairs"`
	RecvBadLines  uint64 `json:"recv_bad_lines"`
	RouterDropped uint64 `json:"router_dropped"`
	Delivered     uint64 `json:"delivered"`
	DoorRejected  uint64 `json:"door_rejected"`
	FloorSkipped  uint64 `json:"floor_skipped"`
	Unrouted      uint64 `json:"unrouted"`
	InFlight      int64  `json:"in_flight"`

	// Link accounting (informative; dup acks make the out/in delta
	// legitimately nonzero).
	ForwardedOut  uint64 `json:"forwarded_out"`
	ForwardedIn   uint64 `json:"forwarded_in"`
	RedirectLocal uint64 `json:"redirect_local"`
	DupBatches    uint64 `json:"dup_batches"`
	Retries       uint64 `json:"retries"`

	// Engine tier, from the registry snapshot. EngineQuarantined is the
	// shard-level quarantine sum (the exact conservation term), not the
	// dead-letter total. QueueDepth is delivered-but-not-yet-consumed,
	// plus one per shard whose worker is still handing matches out, so
	// on a busy node the identities below can read one high per shard.
	EngineIn          uint64 `json:"engine_in"`
	Processed         uint64 `json:"processed"`
	Shed              uint64 `json:"shed"`
	EngineQuarantined uint64 `json:"engine_quarantined"`
	QueueDepth        int    `json:"queue_depth"`
	Matches           uint64 `json:"matches"`

	// Exactness gates: nonzero values mean this node's engine counters
	// include re-counted events (recovery replay, handoff import, or a
	// failover takeover importing a dead peer's durable state).
	WALReplayed uint64 `json:"wal_replayed"`
	HandoffsIn  uint64 `json:"handoffs_in"`
	Takeovers   uint64 `json:"takeovers"`
}

// LocalLedger snapshots this node's conservation ledger.
func (n *Node) LocalLedger() Ledger {
	snap := n.reg.Snapshot()
	d := n.reg.Dispositions()
	l := Ledger{
		Node:          n.cfg.Self,
		EdgePairs:     n.edgePairs.Load(),
		RecvBadLines:  n.recvBadLines.Load(),
		RouterDropped: n.forwardDrop.Load(),
		Delivered:     d[shed.Delivered],
		DoorRejected:  d[shed.Rejected],
		FloorSkipped:  d[shed.FloorSkipped],
		Unrouted:      d[shed.Unrouted],
		InFlight:      n.inFlight.Load(),
		ForwardedOut:  n.forwardedOut.Load(),
		ForwardedIn:   n.forwardedIn.Load(),
		RedirectLocal: n.redirectLocal.Load(),
		DupBatches:    n.dupBatches.Load(),
		Retries:       n.retriesTotal.Load(),
		EngineIn:      snap.EventsIn,
		Processed:     snap.EventsProcessed,
		Shed:          snap.EventsShed,
		Matches:       snap.Matches,
		WALReplayed:   snap.WALReplayed,
		HandoffsIn:    n.handoffsIn.Load(),
		Takeovers:     n.takeovers.Load(),
	}
	for _, q := range snap.Queries {
		l.EngineQuarantined += q.Runtime.ShardQuarantined
		for _, sh := range q.Runtime.Shards {
			l.QueueDepth += sh.QueueDepth
		}
	}
	return l
}

// AuditReport is the evaluated cluster conservation state.
type AuditReport struct {
	Nodes       []Ledger `json:"nodes"`
	Unreachable []string `json:"unreachable,omitempty"`
	// Partial marks a report missing at least one node's ledger: its
	// sums cover only the reachable side, so OK is forced false.
	Partial bool `json:"partial"`

	// Cluster sums and the conservation verdict.
	EdgePairs       uint64 `json:"edge_pairs"`
	Disposed        uint64 `json:"disposed"`
	InFlight        int64  `json:"in_flight"`
	SilentLoss      uint64 `json:"silent_loss"`
	DoubleAccounted uint64 `json:"double_accounted"`
	RouterDropped   uint64 `json:"router_dropped"`

	// LinkDelta = Σ forwarded_out − Σ (forwarded_in + recv_bad_lines).
	// Positive residue is explained by dup-batch acks; negative by
	// delivered-but-unacked batches still being retried (or eventually
	// dropped). Informative, not a verdict input.
	LinkDelta int64 `json:"link_delta"`

	// EngineExact reports whether the engine-tier identity could be
	// asserted (no node replayed a WAL or imported a handoff).
	EngineExact bool     `json:"engine_exact"`
	Problems    []string `json:"problems,omitempty"`
	OK          bool     `json:"ok"`
}

// Evaluate folds node ledgers into a conservation verdict. It is pure:
// callers choose the ledger set (live fan-out, or live + a dead node's
// last known ledger in tests).
func Evaluate(ledgers []Ledger, unreachable []string) AuditReport {
	rep := AuditReport{
		Nodes:       ledgers,
		Unreachable: append([]string(nil), unreachable...),
		Partial:     len(unreachable) > 0,
		EngineExact: true,
	}
	var fwdOut, fwdRecv uint64
	for _, l := range ledgers {
		rep.EdgePairs += l.EdgePairs
		rep.Disposed += l.Delivered + l.DoorRejected + l.FloorSkipped +
			l.RecvBadLines + l.RouterDropped
		rep.InFlight += l.InFlight
		rep.RouterDropped += l.RouterDropped
		fwdOut += l.ForwardedOut
		fwdRecv += l.ForwardedIn + l.RecvBadLines
		if l.WALReplayed > 0 || l.HandoffsIn > 0 || l.Takeovers > 0 {
			rep.EngineExact = false
		}
	}
	rep.LinkDelta = int64(fwdOut) - int64(fwdRecv)

	accounted := rep.Disposed + uint64(max64(rep.InFlight, 0))
	if rep.EdgePairs > accounted {
		rep.SilentLoss = rep.EdgePairs - accounted
	} else {
		rep.DoubleAccounted = accounted - rep.EdgePairs
	}
	if rep.SilentLoss > 0 {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("silent loss: %d pairs entered the cluster and were never accounted for", rep.SilentLoss))
	}
	if rep.DoubleAccounted > rep.RouterDropped {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("double accounting %d exceeds the router-drop allowance %d",
				rep.DoubleAccounted, rep.RouterDropped))
	}
	if rep.EngineExact {
		for _, l := range ledgers {
			// Delivered pairs either entered the engine loop or still sit
			// in a shard queue.
			if l.Delivered != l.EngineIn+uint64(l.QueueDepth) {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("%s: delivered %d != engine_in %d + queue_depth %d",
						l.Node, l.Delivered, l.EngineIn, l.QueueDepth))
			}
			if l.EngineIn != l.Processed+l.Shed+l.EngineQuarantined {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("%s: engine_in %d != processed %d + shed %d + quarantined %d",
						l.Node, l.EngineIn, l.Processed, l.Shed, l.EngineQuarantined))
			}
		}
	}
	if rep.Partial {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("partial audit: %d node(s) unreachable", len(rep.Unreachable)))
	}
	rep.OK = len(rep.Problems) == 0
	return rep
}

// AuditCluster fans out to every peer for its local ledger, merges the
// results (plus any extra ledgers the caller supplies, e.g. a dead
// node's last snapshot), and evaluates. Unreachable peers are listed
// and mark the report partial.
func (n *Node) AuditCluster(extra ...Ledger) AuditReport {
	ledgers := []Ledger{n.LocalLedger()}
	ledgers = append(ledgers, extra...)
	have := map[string]bool{}
	for _, l := range ledgers {
		have[l.Node] = true
	}
	var unreachable []string
	for _, pl := range n.peerLinks() {
		if have[pl.spec.Name] {
			continue
		}
		l, err := n.fetchLedger(pl.spec.Addr)
		if err != nil {
			unreachable = append(unreachable, pl.spec.Name)
			continue
		}
		ledgers = append(ledgers, l)
	}
	sort.Slice(ledgers, func(i, j int) bool { return ledgers[i].Node < ledgers[j].Node })
	sort.Strings(unreachable)
	return Evaluate(ledgers, unreachable)
}

func (n *Node) fetchLedger(addr string) (Ledger, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/cluster/audit?scope=local", nil)
	if err != nil {
		return Ledger{}, err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return Ledger{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return Ledger{}, fmt.Errorf("audit: %s", resp.Status)
	}
	var l Ledger
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&l); err != nil {
		return Ledger{}, err
	}
	return l, nil
}

// HandleAudit serves GET /cluster/audit. ?scope=local returns just
// this node's ledger (the peer fan-out leaf); the default evaluates
// the whole cluster.
func (n *Node) HandleAudit(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if r.URL.Query().Get("scope") == "local" {
		enc.Encode(n.LocalLedger())
		return
	}
	enc.Encode(n.AuditCluster())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
