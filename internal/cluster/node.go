package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/event"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
)

// Config wires a Node into its host process.
type Config struct {
	// Self is this node's name; it must appear in Topology.
	Self string
	// Topology is the initial membership, identical on every node.
	// ReloadTopology applies membership changes at runtime.
	Topology Topology
	// Registry is the local serving core. Every node registers the same
	// queries; placement decides which slots each node actually runs.
	Registry *registry.Registry
	// StampTime assigns a monotone arrival timestamp to an event whose
	// source line carried none. It runs at the INGEST edge, so a
	// forwarded event keeps its true arrival time.
	StampTime func(e *event.Event)
	// StampSeq assigns the node-local sequence number: at ingest, to
	// each event with a subscriber, and at a slot's OWNER, to each
	// forwarded event — forwarded events travel with time but no seq — so
	// each node's input-log sequence space stays monotone under its own
	// counter regardless of which node ingested the event.
	StampSeq func(e *event.Event)
	// BumpSeq raises the node's sequence counter to at least min —
	// called after an import so events stamped after the migrated
	// state slot in ABOVE the imported snapshot's floor, never below it
	// (below would make the next recovery's WAL filter drop them).
	BumpSeq func(min uint64)
	// Detector tunes failure detection; Probe is filled in by the node.
	Detector DetectorConfig
	// ForwardBuf is the per-peer forward queue capacity in events
	// (default 4096). A full queue sheds rather than blocks ingest.
	ForwardBuf int
	// HTTPTimeout bounds each peer call (default 2s; handoffs get 10×).
	HTTPTimeout time.Duration
	// Transport, when set, replaces the default HTTP transport for
	// every peer call — heartbeats, forwards, gossip, handoffs. The
	// chaos tests wrap it in fault.NetChaos to inject partitions.
	Transport http.RoundTripper
	// ForwardRetries bounds re-sends of one forward batch after a
	// network error (default 4 retries after the first attempt).
	// Retries go to the SAME peer with the SAME batch ID — the
	// receiver's dedup window makes them idempotent; only an explicit
	// ownership NACK re-routes a batch.
	ForwardRetries int
	// RetryPolicy shapes the capped, jittered backoff between forward
	// retries (zero value: supervisor defaults, 10ms base / 2s cap).
	RetryPolicy runtime.RestartPolicy
	// DedupWindow is how many recent batch IDs the forward receiver
	// remembers per sender (default 4096). A batch must fall out of
	// this window — ForwardRetries × coalesced batches later — before
	// a retry could double-deliver.
	DedupWindow int
	// AuthToken, when set, is sent as a bearer token on mutating peer
	// calls (forward, handoff, placement) — pair it with the server's
	// -admin-token so cluster traffic passes the same door.
	AuthToken string
	Logf      func(format string, args ...any)
}

// Node is the cluster runtime for one process: placement view, failure
// detector, forwarders, and the handoff/failover control plane. The
// host HTTP server mounts Handle* under /cluster/*.
type Node struct {
	cfg   Config
	self  NodeSpec
	reg   *registry.Registry
	place *Placement
	det   *Detector
	hc    *http.Client

	// peerMu guards peers and cfg.Topology against topology reloads.
	peerMu sync.RWMutex
	peers  map[string]*peerLink

	// moveMu serializes the control plane (planned moves, failovers,
	// topology reloads): concurrent migrations of the same slot would
	// race export against import.
	moveMu sync.Mutex

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// batchSeq numbers outgoing forward batches; (Self, batch) is the
	// receiver-side dedup key, so it must never repeat within a
	// process lifetime.
	batchSeq atomic.Uint64

	// dedup is the receiver-side window of recently accepted batch IDs
	// per sender; handoffAcks is the same idea for shipped shards
	// (mover.go), sharing the lock.
	dedupMu        sync.Mutex
	dedup          map[string]*dedupWindow
	handoffAcks    map[string]handoffResp
	handoffAckFIFO []string

	// Counters. inFlight is the handoff_in_flight gauge: events queued
	// for forwarding plus handoff frames shipped but not yet resolved.
	forwardedOut  atomic.Uint64 // pairs acked by a peer
	forwardedIn   atomic.Uint64 // pairs received from peers and offered here
	forwardDrop   atomic.Uint64 // router_dropped_total: pairs dropped at the router
	retriesTotal  atomic.Uint64 // forward batch re-sends after network errors
	redirects     atomic.Uint64 // forward batches re-routed after an ownership NACK
	dupBatches    atomic.Uint64 // retried batches this node refused as duplicates
	handoffsOut   atomic.Uint64 // planned handoffs shipped successfully
	handoffsIn    atomic.Uint64 // handoffs imported (planned or not)
	handoffFailed atomic.Uint64
	takeovers     atomic.Uint64 // slots adopted by failover
	failovers     atomic.Uint64 // dead-peer events handled
	inFlight      atomic.Int64

	// Audit ledger counters (see audit.go): every (event, query) pair
	// that enters the cluster at this node's edge, and every final
	// disposition the ROUTER gives one at this node, wherever the pair
	// came from. What the local registry made of the pairs that reached it
	// is read from its disposition ledger, not mirrored here.
	edgePairs     atomic.Uint64 // pairs created at this node's ingest edge
	recvBadLines  atomic.Uint64 // undecodable forwarded lines (sender bug)
	redirectLocal atomic.Uint64 // forwarded pairs that came back home after a NACK
}

type peerLink struct {
	spec NodeSpec
	q    chan fwdItem
	stop chan struct{} // closed when the peer is removed by a reload

	dropped atomic.Uint64 // pairs dropped on this link (router_dropped per peer)
	retries atomic.Uint64 // batch re-sends on this link
}

type fwdItem struct {
	tenant, query string
	fp            uint64
	slot          int
	line          []byte // NDJSON-encoded event, newline not included
}

// dedupWindow remembers the last cap batch IDs from one sender.
type dedupWindow struct {
	seen map[uint64]struct{}
	fifo []uint64
	next int
}

// New builds a Node; Start launches its goroutines.
func New(cfg Config) (*Node, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	self, ok := cfg.Topology.Find(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: self %q not in topology", cfg.Self)
	}
	if cfg.Registry == nil || cfg.StampTime == nil || cfg.StampSeq == nil {
		return nil, fmt.Errorf("cluster: Registry, StampTime, and StampSeq are required")
	}
	if cfg.ForwardBuf <= 0 {
		cfg.ForwardBuf = 4096
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 2 * time.Second
	}
	if cfg.ForwardRetries <= 0 {
		cfg.ForwardRetries = 4
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 4096
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	hc := &http.Client{Timeout: cfg.HTTPTimeout}
	if cfg.Transport != nil {
		hc.Transport = cfg.Transport
	}
	n := &Node{
		cfg:   cfg,
		self:  self,
		reg:   cfg.Registry,
		place: NewPlacement(cfg.Topology.Names()),
		hc:    hc,
		peers: map[string]*peerLink{},
		dedup: map[string]*dedupWindow{},
		done:  make(chan struct{}),
	}
	for _, p := range cfg.Topology.Nodes {
		if p.Name == cfg.Self {
			continue
		}
		n.peers[p.Name] = newPeerLink(p, cfg.ForwardBuf)
	}
	det := cfg.Detector
	det.Probe = n.probe
	det.OnDown = n.onPeerDown
	det.OnUp = n.onPeerUp
	if det.Logf == nil {
		det.Logf = cfg.Logf
	}
	peerSpecs := make([]NodeSpec, 0, len(n.peers))
	for _, pl := range n.peers {
		peerSpecs = append(peerSpecs, pl.spec)
	}
	n.det = NewDetector(det, peerSpecs)
	return n, nil
}

func newPeerLink(spec NodeSpec, buf int) *peerLink {
	return &peerLink{spec: spec, q: make(chan fwdItem, buf), stop: make(chan struct{})}
}

// Start launches the detector, the per-peer forwarders, and an initial
// placement pull so a rejoining node learns overrides recorded while
// it was dead (its old slots may have moved; claiming them back would
// split ownership).
func (n *Node) Start() {
	n.det.Start()
	n.peerMu.RLock()
	for _, pl := range n.peers {
		n.wg.Add(1)
		go n.forwarder(pl)
	}
	n.peerMu.RUnlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.pullPlacement()
	}()
}

// Close stops the detector and forwarders. Queued forward items are
// dropped (counted). The host must stop offering batches first —
// OfferBatch after Close drops every remote pair.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	n.det.Close()
	close(n.done)
	n.wg.Wait()
}

// Degraded reports whether any peer is currently considered down.
func (n *Node) Degraded() bool { return n.place.AnyDown() }

// Placement exposes the node's placement view (status, tests).
func (n *Node) Placement() *Placement { return n.place }

// Self returns this node's name.
func (n *Node) Self() string { return n.cfg.Self }

// peer returns the live link for a peer name.
func (n *Node) peer(name string) (*peerLink, bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	pl, ok := n.peers[name]
	return pl, ok
}

// peerLinks snapshots the current links.
func (n *Node) peerLinks() []*peerLink {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	out := make([]*peerLink, 0, len(n.peers))
	for _, pl := range n.peers {
		out = append(out, pl)
	}
	return out
}

// topology returns the current (possibly reloaded) membership.
func (n *Node) topology() Topology {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.cfg.Topology
}

func (n *Node) probe(spec NodeSpec) error {
	req, err := http.NewRequest(http.MethodGet, "http://"+spec.Addr+"/cluster/health", nil)
	if err != nil {
		return err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health: %s", resp.Status)
	}
	return nil
}

func (n *Node) onPeerDown(name string) {
	n.place.SetDown(name, true)
	n.failovers.Add(1)
	go n.failover(name)
}

func (n *Node) onPeerUp(name string) {
	n.place.SetDown(name, false)
	// The revived peer missed every override recorded while it was
	// dead — push our view so it doesn't reclaim migrated slots.
	go n.pushPlacement(name)
}

// ---- HTTP client helpers ----

func (n *Node) post(addr, path string, body []byte, contentType string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if n.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+n.cfg.AuthToken)
	}
	return n.hc.Do(req)
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// ---- placement gossip ----

type placementMsg struct {
	From      string     `json:"from"`
	Version   uint64     `json:"version"`
	Overrides []Override `json:"overrides"`
}

func (n *Node) placementBody() []byte {
	v, ovs := n.place.Overrides()
	b, _ := json.Marshal(placementMsg{From: n.cfg.Self, Version: v, Overrides: ovs})
	return b
}

func (n *Node) pushPlacement(names ...string) {
	body := n.placementBody()
	targets := names
	if len(targets) == 0 {
		for _, pl := range n.peerLinks() {
			targets = append(targets, pl.spec.Name)
		}
	}
	for _, name := range targets {
		pl, ok := n.peer(name)
		if !ok || n.place.IsDown(name) {
			continue
		}
		resp, err := n.post(pl.spec.Addr, "/cluster/placement", body, "application/json")
		if err != nil {
			n.cfg.Logf("cluster: placement push to %s: %v", name, err)
			continue
		}
		drainClose(resp)
	}
}

func (n *Node) pullPlacement() {
	for _, pl := range n.peerLinks() {
		req, err := http.NewRequest(http.MethodGet, "http://"+pl.spec.Addr+"/cluster/placement", nil)
		if err != nil {
			continue
		}
		resp, err := n.hc.Do(req)
		if err != nil {
			continue
		}
		var msg placementMsg
		err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&msg)
		resp.Body.Close()
		if err != nil {
			n.cfg.Logf("cluster: placement pull from %s: %v", pl.spec.Name, err)
			continue
		}
		n.place.Merge(msg.Overrides)
	}
}

// ---- HTTP handlers (mounted by the host server under /cluster/*) ----

// HandleHealth answers heartbeats: GET /cluster/health.
func (n *Node) HandleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"node":%q,"version":%d}`+"\n", n.cfg.Self, n.place.Version())
}

// HandlePeerView answers GET /cluster/peerview?peer=X with this node's
// detector view of X — the death-confirmation vote a survivor collects
// before failing X over. Asking about self (or an unknown name) counts
// as "up": an unconfirmed death must block failover, not permit it.
func (n *Node) HandlePeerView(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("peer")
	up := true
	if name != n.cfg.Self {
		if u, known := n.det.PeerUp(name); known {
			up = u
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"peer":%q,"up":%v}`+"\n", name, up)
}

// HandlePlacement serves GET (our override map) and POST (merge a
// peer's) on /cluster/placement.
func (n *Node) HandlePlacement(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		w.Write(n.placementBody())
	case http.MethodPost:
		var msg placementMsg
		if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&msg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.place.Merge(msg.Overrides)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// PeerForwardStatus is one link's forwarding counters, for /cluster
// and the per-peer router_dropped_total metric.
type PeerForwardStatus struct {
	Name    string `json:"name" prom:"peer,label"`
	Queue   int    `json:"queue"`
	Dropped uint64 `json:"dropped" prom:"cepshed_cluster_router_dropped_total,counter,Event pairs dropped on one peer link (queue overflow or failed delivery)."`
	Retries uint64 `json:"retries"`
}

// Status is the /cluster payload.
type Status struct {
	Self      string       `json:"self"`
	Degraded  bool         `json:"degraded" prom:"cepshed_cluster_degraded,gauge,1 while any peer is considered down or quarantined."`
	Peers     []PeerStatus `json:"peers"`
	Placement struct {
		Version   uint64 `json:"version"`
		Overrides int    `json:"overrides"`
	} `json:"placement"`
	ForwardedOut  uint64              `json:"forwarded_out" prom:"cepshed_cluster_forwarded_out_total,counter,Event pairs forwarded to a peer owner."`
	ForwardedIn   uint64              `json:"forwarded_in" prom:"cepshed_cluster_forwarded_in_total,counter,Event pairs received from peer routers."`
	ForwardDrop   uint64              `json:"forward_dropped" prom:"cepshed_cluster_forward_dropped_total,counter,Event pairs dropped at the router: queue full, owner down, retries exhausted."`
	Retries       uint64              `json:"forward_retries" prom:"cepshed_cluster_forward_retries_total,counter,Forward batch re-sends after ambiguous network failures."`
	Redirects     uint64              `json:"forward_redirects" prom:"cepshed_cluster_forward_redirects_total,counter,Forward batches re-routed after an ownership NACK."`
	DupBatches    uint64              `json:"dup_batches" prom:"cepshed_cluster_dup_batches_total,counter,Retried forward batches refused by the receiver's dedup window."`
	HandoffsOut   uint64              `json:"handoffs_out" prom:"cepshed_cluster_handoffs_out_total,counter,Planned handoffs shipped successfully."`
	HandoffsIn    uint64              `json:"handoffs_in" prom:"cepshed_cluster_handoffs_in_total,counter,Shard handoffs imported."`
	HandoffFailed uint64              `json:"handoffs_failed"`
	Takeovers     uint64              `json:"takeovers" prom:"cepshed_cluster_takeovers_total,counter,Slots adopted from dead peers by failover."`
	Failovers     uint64              `json:"failovers"`
	InFlight      int64               `json:"handoff_in_flight" prom:"cepshed_cluster_handoff_in_flight,gauge,Events queued for forwarding plus handoff frames awaiting an ack."`
	PeerForwards  []PeerForwardStatus `json:"peer_forwards"`
}

// Status snapshots the node's cluster state.
func (n *Node) Status() Status {
	var s Status
	s.Self = n.cfg.Self
	s.Degraded = n.Degraded()
	s.Peers = n.det.Status()
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Name < s.Peers[j].Name })
	v, ovs := n.place.Overrides()
	s.Placement.Version = v
	s.Placement.Overrides = len(ovs)
	s.ForwardedOut = n.forwardedOut.Load()
	s.ForwardedIn = n.forwardedIn.Load()
	s.ForwardDrop = n.forwardDrop.Load()
	s.Retries = n.retriesTotal.Load()
	s.Redirects = n.redirects.Load()
	s.DupBatches = n.dupBatches.Load()
	s.HandoffsOut = n.handoffsOut.Load()
	s.HandoffsIn = n.handoffsIn.Load()
	s.HandoffFailed = n.handoffFailed.Load()
	s.Takeovers = n.takeovers.Load()
	s.Failovers = n.failovers.Load()
	s.InFlight = n.inFlight.Load()
	for _, pl := range n.peerLinks() {
		s.PeerForwards = append(s.PeerForwards, PeerForwardStatus{
			Name:    pl.spec.Name,
			Queue:   len(pl.q),
			Dropped: pl.dropped.Load(),
			Retries: pl.retries.Load(),
		})
	}
	sort.Slice(s.PeerForwards, func(i, j int) bool { return s.PeerForwards[i].Name < s.PeerForwards[j].Name })
	return s
}

// HandleStatus serves GET /cluster.
func (n *Node) HandleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.Status())
}

// HandleClusterStats serves GET /cluster/stats: this node's /stats
// plus every peer's, fetched concurrently and keyed by node name — the
// rolled-up cluster view a dashboard scrapes once. Peers that cannot
// be reached (down, partitioned, or slow) degrade the result to a
// partial one: their names land in `unreachable` instead of failing
// the whole rollup.
func (n *Node) HandleClusterStats(localStats func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		links := n.peerLinks()
		type peerResult struct {
			name string
			body json.RawMessage
		}
		results := make(chan peerResult, len(links))
		for _, pl := range links {
			go func(pl *peerLink) {
				req, err := http.NewRequest(http.MethodGet, "http://"+pl.spec.Addr+"/stats", nil)
				if err != nil {
					results <- peerResult{name: pl.spec.Name}
					return
				}
				resp, err := n.hc.Do(req)
				if err != nil {
					results <- peerResult{name: pl.spec.Name}
					return
				}
				b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(b) {
					results <- peerResult{name: pl.spec.Name}
					return
				}
				results <- peerResult{name: pl.spec.Name, body: b}
			}(pl)
		}
		nodes := map[string]json.RawMessage{}
		if b, err := json.Marshal(localStats()); err == nil {
			nodes[n.cfg.Self] = b
		}
		unreachable := []string{}
		for range links {
			res := <-results
			if res.body == nil {
				unreachable = append(unreachable, res.name)
				continue
			}
			nodes[res.name] = res.body
		}
		sort.Strings(unreachable)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"cluster":     n.Status(),
			"nodes":       nodes,
			"unreachable": unreachable,
		})
	}
}
