// Command cepserved runs the sharded wall-clock CEP runtime as a
// multi-query, multi-tenant server: a query registry holds N compiled
// queries (each with its own shards, degradation ladder, and durable
// state), one decoded NDJSON stream fans out to every subscribed query,
// and a cross-query arbiter keeps one tenant's overload from degrading
// its neighbors. Events arrive over HTTP and/or raw TCP; the built-in
// dataset generators can replay a stream at a configurable rate for
// load testing.
//
// Endpoints (on -listen):
//
//	POST   /ingest                           NDJSON event lines (docs/RUNTIME.md)
//	GET    /stats                            JSON registry snapshot (per query + totals)
//	GET    /metrics                          Prometheus text exposition (tenant/query labels)
//	GET    /healthz                          health/readiness probe
//	GET    /deadletters                      recent quarantined inputs (docs/ROBUSTNESS.md)
//	GET    /queries                          registered queries with live status
//	POST   /queries                          register a query (JSON QuerySpec; ?wait=1 blocks
//	                                         until it is recovered and serving)
//	DELETE /queries/{tenant}/{name}          unregister (+ ?purge=1 deletes its state dir)
//	POST   /queries/{tenant}/{name}/pause    stop routing to a query, keep it registered
//	POST   /queries/{tenant}/{name}/resume   undo pause
//	GET    /tenants                          registered tenants
//	PUT    /tenants                          register/update a tenant (JSON Tenant)
//
// With -cluster topology.json -node <name>, additional /cluster routes
// serve the multi-node layer (docs/CLUSTER.md): GET /cluster (node
// status), /cluster/health (heartbeat), /cluster/peerview (death-
// confirmation votes), /cluster/placement, /cluster/stats (cluster-wide
// rollup), /cluster/audit (conservation auditor), and POST
// /cluster/forward, /cluster/handoff, /cluster/move (planned shard
// migration), /cluster/reload (re-read the topology file; SIGHUP does
// the same). Mutating admin and cluster routes accept an optional
// shared bearer token (-admin-token) and are body- and time-bounded.
//
// Queries are added and removed at runtime — no restart: POST /queries
// compiles and validates the query text (and its shedding strategy)
// before anything is activated, so a bad spec is a clean 400. See
// docs/MULTIQUERY.md.
//
// Examples:
//
//	cepserved -dataset ds1 -events 200000 -rate 50000 -shards 4 \
//	  -strategy Hybrid -bound 2ms
//
//	cepserved -tcp :9999 -shards 8 -strategy RI -bound 5ms \
//	  -query 'PATTERN SEQ(A a, B b, C c) WHERE a.ID=b.ID AND a.ID=c.ID WITHIN 8ms'
//
// On SIGINT/SIGTERM the server stops ingesting, closes live TCP ingest
// connections, drains every query's shard queues (emitting the final
// matches those events complete), and prints the final snapshot.
//
// With -state-dir every query checkpoints into its own fingerprinted
// directory and the registry records its membership in a manifest, so a
// crash or restart re-registers every query — including ones added
// mid-stream over the admin API — and resumes each from its last good
// snapshot plus WAL tail. During boot recovery /healthz reports
// "recovering" and /ingest answers 503. See docs/DURABILITY.md.
//
// The server is hardened against misbehaving clients: HTTP requests are
// bounded by header/read/idle timeouts, TCP ingest connections carry a
// per-read idle deadline, undecodable NDJSON lines are quarantined to
// the dead-letter queue with their line number and payload, and when
// EVERY serving query's degradation ladder reaches load rejection the
// HTTP path answers 429 and the TCP path emits NACK lines
// (docs/ROBUSTNESS.md).
package main

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cepshed/internal/baseline"
	"cepshed/internal/checkpoint"
	"cepshed/internal/cluster"
	"cepshed/internal/core"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/gen"
	"cepshed/internal/metrics"
	"cepshed/internal/nfa"
	"cepshed/internal/registry"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// defaultTenant/defaultQueryName identify the query built from the
// -query/-dataset flags; admin-added queries pick their own names.
const (
	defaultTenant    = "default"
	defaultQueryName = "main"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "HTTP listen address (/ingest, /stats, /metrics, /healthz, /deadletters, /queries, /tenants)")
		tcpAddr   = flag.String("tcp", "", "optional raw TCP NDJSON listen address")
		tcpIdle   = flag.Duration("tcp-idle", time.Minute, "TCP ingest read deadline; a connection idle longer is closed")
		httpRead  = flag.Duration("http-read-timeout", 5*time.Minute, "HTTP read timeout (bounds one /ingest request body)")
		shards    = flag.Int("shards", 4, "engine shards (state partitions) per query; 0 = auto (GOMAXPROCS)")
		queueLen  = flag.Int("queue", 1024, "per-shard bounded queue capacity")
		dataset   = flag.String("dataset", "", "replay dataset: ds1, ds2, citibike, gcluster (empty: ingest only)")
		events    = flag.Int("events", 100000, "replay stream length (trips/tasks for the case studies)")
		rate      = flag.Float64("rate", 20000, "replay rate in events/sec (0: as fast as backpressure allows)")
		loop      = flag.Bool("loop", false, "repeat the replay until terminated")
		querySrc  = flag.String("query", "", "initial query text (default: the paper query for the dataset; empty with no dataset: start with no queries and register over POST /queries)")
		strategy  = flag.String("strategy", "Hybrid", "default shedding strategy: None, RI, SI, PI, RS, SS, Hybrid, HyI, HyS (per-query override via QuerySpec.Strategy)")
		bound     = flag.Duration("bound", 2*time.Millisecond, "default wall-clock latency bound θ (per-tenant/per-query overrides via the admin API)")
		seed      = flag.Int64("seed", 1, "generator seed")
		emit      = flag.Bool("print-matches", false, "write detected matches as NDJSON to stdout")
		stateDir  = flag.String("state-dir", "", "directory for per-query checkpoints, WALs, and the registry manifest (empty: no durability; see docs/DURABILITY.md)")
		ckptEvery = flag.Int("checkpoint-every", 32768, "events between per-shard snapshots (bounds replay time after a crash, not data loss)")
		walFlush  = flag.Int("wal-flush", 1024, "max WAL records per flush group; 1 flushes every record (group commit: a crash loses at most one unflushed group)")
		walFlushB = flag.Int("wal-flush-bytes", 48<<10, "max buffered WAL bytes per flush group")
		walFlushT = flag.Duration("wal-flush-interval", 2*time.Millisecond, "max age of a buffered WAL record before the group flushes")
		walFsync  = flag.Bool("wal-fsync", false, "fsync WAL flushes and snapshots (survives machine crashes, not just process crashes)")
		arbEvery  = flag.Duration("arbiter-interval", 250*time.Millisecond, "cross-query arbiter control period")
		arbCap    = flag.Float64("arbiter-capacity", 0, "arbiter utilization target in CPU-seconds/sec (0: 0.8 x GOMAXPROCS)")
		noArbiter = flag.Bool("no-arbiter", false, "disable the cross-query shedding arbiter (per-query ladders still run)")

		clusterCfg = flag.String("cluster", "", "cluster topology file (JSON; see docs/CLUSTER.md); requires -node")
		nodeName   = flag.String("node", "", "this node's name in the -cluster topology")
		hbEvery    = flag.Duration("heartbeat", 100*time.Millisecond, "cluster heartbeat interval")
		hbMisses   = flag.Int("heartbeat-misses", 3, "consecutive missed heartbeats before a peer is declared dead")
		adminToken = flag.String("admin-token", "", "bearer token required on mutating admin and cluster endpoints (empty: no auth)")
		adminTO    = flag.Duration("admin-timeout", 10*time.Second, "per-request timeout on admin endpoints")
	)
	flag.Parse()

	if *shards == 0 {
		// Auto-sharding keys partitioning to schedulable parallelism: one
		// shard per schedulable CPU gives the worker pool one home shard
		// each, and work stealing absorbs key skew between them.
		*shards = goruntime.GOMAXPROCS(0)
		log.Printf("cepserved: -shards 0: auto-sharding to GOMAXPROCS=%d", *shards)
	}

	// Durability knobs without -state-dir used to silently do nothing —
	// an operator who set -wal-fsync believed they had durability and
	// did not. Fail fast instead.
	durabilityFlags := map[string]bool{
		"checkpoint-every": true, "wal-flush": true, "wal-flush-bytes": true,
		"wal-flush-interval": true, "wal-fsync": true,
	}
	if *stateDir == "" {
		var orphaned []string
		flag.Visit(func(f *flag.Flag) {
			if durabilityFlags[f.Name] {
				orphaned = append(orphaned, "-"+f.Name)
			}
		})
		if len(orphaned) > 0 {
			log.Fatalf("cepserved: %s without -state-dir: durability flags have no effect unless a state directory is set",
				strings.Join(orphaned, ", "))
		}
	}

	var topo cluster.Topology
	if *clusterCfg != "" {
		if *nodeName == "" {
			log.Fatal("cepserved: -cluster requires -node")
		}
		if *dataset != "" {
			// Replay events carry generator-assigned sequence numbers that
			// would interleave with the node's own counter; clustered load
			// comes in over /ingest or TCP.
			log.Fatal("cepserved: -dataset replay is single-node load generation; it does not compose with -cluster")
		}
		var err error
		topo, err = cluster.LoadTopology(*clusterCfg)
		if err != nil {
			log.Fatalf("cepserved: %v", err)
		}
		if _, ok := topo.Find(*nodeName); !ok {
			log.Fatalf("cepserved: -node %q not in topology %s", *nodeName, *clusterCfg)
		}
		if *stateDir == "" {
			log.Print("cepserved: cluster mode without -state-dir: failover will move slot ownership but cannot adopt a dead node's state")
		}
	}

	var train, work event.Stream
	src := *querySrc
	if *dataset != "" {
		var defQuery string
		var err error
		if train, work, defQuery, err = gen.Dataset(*dataset, *events, *seed); err != nil {
			log.Fatalf("cepserved: %v", err)
		}
		if src == "" {
			src = defQuery
		}
	}
	if src == "" && *stateDir == "" {
		log.Print("cepserved: no -query, -dataset, or -state-dir: starting with no queries; register one via POST /queries")
	}

	cfg := registry.Config{
		Shards:       *shards,
		QueueLen:     *queueLen,
		DefaultTheta: *bound,
		StateDir:     *stateDir,
		Arbiter: registry.ArbiterConfig{
			Interval: *arbEvery,
			Capacity: *arbCap,
			Disabled: *noArbiter,
		},
		NewStrategy: func(spec registry.QuerySpec, m *nfa.Machine, b time.Duration) (func(int) shed.Strategy, error) {
			name := spec.Strategy
			if name == "" {
				name = *strategy
			}
			return strategyFactory(name, m, train, event.Time(b.Nanoseconds()), *seed)
		},
		Logf: log.Printf,
	}
	if *stateDir != "" {
		cfg.Durability = &checkpoint.Config{
			EveryEvents:   *ckptEvery,
			FlushEvery:    *walFlush,
			FlushBytes:    *walFlushB,
			FlushInterval: *walFlushT,
			Fsync:         *walFsync,
		}
	}
	if *emit {
		// One write(2) per delivered batch, nothing buffered between calls:
		// when reg.Close returns every match line is out, so the final
		// snapshot follows the last of them. Lines of one call stay
		// together; the order of different shards' calls is unspecified.
		var emitMu sync.Mutex
		var lines []byte // under emitMu
		cfg.OnMatches = func(spec registry.QuerySpec, shard int, ms []engine.Match) {
			emitMu.Lock()
			defer emitMu.Unlock()
			lines = appendMatchLines(lines[:0], spec, shard, ms)
			os.Stdout.Write(lines) // a closed stdout loses match lines, as it always did
		}
	}

	// Hybrid strategies train a cost model per query inside the runtime,
	// which can take seconds on large training streams — say so, or the
	// silence before the listener comes up looks like a hang.
	if len(train) > 0 {
		log.Printf("cepserved: starting %d shards per query (strategy %s may train on %d events per query)",
			*shards, *strategy, len(train))
	}
	reg, err := registry.Open(cfg)
	if err != nil {
		log.Fatalf("cepserved: %v", err)
	}
	// Register the flag-defined default query unless the durable manifest
	// already restored it (possibly with different text — the manifest,
	// being what the durable state belongs to, wins).
	if src != "" {
		if in, ok := reg.Get(defaultTenant, defaultQueryName); ok {
			if in.Spec().Query != src {
				log.Printf("cepserved: manifest already defines %s/%s; ignoring -query/-dataset default text",
					defaultTenant, defaultQueryName)
			}
		} else {
			if _, err := reg.Add(registry.QuerySpec{
				Tenant:   defaultTenant,
				Name:     defaultQueryName,
				Query:    src,
				Strategy: *strategy,
			}); err != nil {
				log.Fatalf("cepserved: %v", err)
			}
		}
	}
	srv := &server{reg: reg, started: time.Now(), tcpIdle: *tcpIdle, conns: map[net.Conn]struct{}{},
		adminToken: *adminToken, adminTO: *adminTO}

	if *clusterCfg != "" {
		cl, err := cluster.New(cluster.Config{
			Self:      *nodeName,
			Topology:  topo,
			Registry:  reg,
			StampTime: func(e *event.Event) { srv.stampTime(e, false) },
			StampSeq:  srv.stampSeq,
			BumpSeq:   srv.bumpSeq,
			Detector: cluster.DetectorConfig{
				Interval: *hbEvery,
				Misses:   *hbMisses,
			},
			AuthToken: *adminToken,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("cepserved: %v", err)
		}
		srv.cl = cl
		cfgPath := *clusterCfg
		srv.loadTop = func() (cluster.Topology, error) { return cluster.LoadTopology(cfgPath) }
		// SIGHUP re-reads the topology file and applies membership
		// changes in place (POST /cluster/reload is the same path).
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				top, err := srv.loadTop()
				if err != nil {
					log.Printf("cepserved: SIGHUP topology reload: %v", err)
					continue
				}
				if err := cl.ReloadTopology(top); err != nil {
					log.Printf("cepserved: SIGHUP topology reload: %v", err)
					continue
				}
				log.Printf("cepserved: topology reloaded from %s (%d nodes)", cfgPath, len(top.Nodes))
			}
		}()
		log.Printf("cepserved: cluster node %q in %d-node topology %s", *nodeName, len(topo.Nodes), *clusterCfg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// A slow or malicious HTTP client must not hold a connection open
	// indefinitely: headers get a short deadline, a whole request body a
	// longer one, and keep-alive connections an idle cap. The listener is
	// opened explicitly so ":0" works and the log line carries the real
	// address (the smoke tests depend on both).
	httpSrv := &http.Server{
		Handler:           srv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *httpRead,
		IdleTimeout:       2 * time.Minute,
	}
	httpLn, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cepserved: http listen: %v", err)
	}
	log.Printf("cepserved: HTTP on %s (queries=%d, shards=%d, default strategy=%s, bound=%s)",
		httpLn.Addr(), len(reg.Snapshot().Queries), *shards, *strategy, bound)
	go func() {
		if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
			log.Fatalf("cepserved: http: %v", err)
		}
	}()

	// Recovery gate: the HTTP endpoints are already up (so /healthz says
	// "recovering" and /ingest answers 503), but no new input flows until
	// every registered query has restored its snapshots and replayed its
	// WAL tail.
	reg.WaitRecovered()
	if *stateDir != "" {
		info := reg.RecoveryInfo()
		if info.Restored > 0 {
			// Resume numbering and time above everything already durable.
			// Dataset replay restarts from the LOWEST recovered floor so
			// every query's gap is covered; per-query floors drop the prefix
			// an individual query already has.
			srv.seq.Store(info.MaxSeq + 1)
			srv.lastT.Store(info.MaxTime)
			srv.replayFloor.Store(info.MinFloorSeq)
			log.Printf("cepserved: recovered %d queries up to seq=%d (replay floor=%d wal_replayed=%d cold_starts=%d)",
				info.Restored, info.MaxSeq, info.MinFloorSeq, info.WALReplayed, info.ColdStarts)
		}
	}
	srv.ready.Store(true)
	if srv.cl != nil {
		// Start probing peers only after local recovery: a node busy
		// replaying its WAL must not declare the cluster degraded, and
		// imports require recovered runtimes.
		srv.cl.Start()
	}

	var tcpLn net.Listener
	if *tcpAddr != "" {
		tcpLn, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			log.Fatalf("cepserved: tcp: %v", err)
		}
		log.Printf("cepserved: NDJSON TCP on %s (idle timeout %s)", tcpLn.Addr(), *tcpIdle)
		go srv.serveTCP(ctx, tcpLn)
	}

	var producers sync.WaitGroup
	if len(work) > 0 {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for {
				n := srv.replay(ctx, work, *rate)
				log.Printf("cepserved: replay pass done (%d events offered)", n)
				if !*loop || ctx.Err() != nil {
					return
				}
			}
		}()
	}

	<-ctx.Done()
	log.Print("cepserved: draining shard queues")
	srv.closing.Store(true)
	if tcpLn != nil {
		tcpLn.Close()
	}
	srv.closeConns() // stalled producers must not delay the drain
	// Stop the replay producer before closing so the final snapshot
	// accounts for every event it offered. (Offer itself is safe against
	// a concurrent Close — late TCP/HTTP ingest is simply rejected.)
	producers.Wait()
	if srv.cl != nil {
		srv.cl.Close() // stop heartbeats and drain forward queues first
	}
	reg.Close() // graceful drain: queued events finish, engines flush
	shut, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shut)

	final := reg.Snapshot()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(final)
	log.Printf("cepserved: final: queries=%d events_in=%d matches=%d shed=%d unrouted=%d",
		len(final.Queries), final.EventsIn, final.Matches, final.EventsShed, final.Unrouted)
}

// server wires the registry into the network frontends.
type server struct {
	reg        *registry.Registry
	cl         *cluster.Node // nil outside cluster mode
	loadTop    func() (cluster.Topology, error)
	adminToken string
	adminTO    time.Duration
	started    time.Time
	tcpIdle    time.Duration
	seq        atomic.Uint64
	lastT      atomic.Int64 // monotone floor for assigned arrival times
	closing    atomic.Bool
	badLine    atomic.Uint64
	stalled    atomic.Uint64 // TCP connections closed by the idle deadline

	// ready flips once boot recovery finishes; until then /ingest answers
	// 503 and /healthz reports "recovering". replayFloor is the first
	// sequence number dataset replay still owes — everything below it was
	// recovered by every query from its checkpoint store.
	ready       atomic.Bool
	replayFloor atomic.Uint64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// stampTime assigns the arrival time (when the line carried none) and
// clamps it to the monotone floor. Separate from stampSeq because in
// cluster mode time is stamped at the INGEST edge while the sequence
// number is stamped at the slot's owner.
func (s *server) stampTime(e *event.Event, hasTime bool) {
	if !hasTime {
		e.Time = event.Time(time.Since(s.started).Nanoseconds())
	}
	// Per-shard time must be non-decreasing; concurrent producers race
	// between stamping and enqueueing, so clamp to a global floor.
	for {
		last := s.lastT.Load()
		if int64(e.Time) >= last {
			if s.lastT.CompareAndSwap(last, int64(e.Time)) {
				break
			}
			continue
		}
		e.Time = event.Time(last)
		break
	}
}

// stampSeq assigns the node-local sequence number.
func (s *server) stampSeq(e *event.Event) {
	e.Seq = s.seq.Add(1) - 1
}

// bumpSeq raises the sequence counter to at least min — after a shard
// import, new stamps must land above the imported snapshot's floor or
// the next recovery's WAL filter would drop them as already-covered.
func (s *server) bumpSeq(min uint64) {
	for {
		cur := s.seq.Load()
		if cur >= min || s.seq.CompareAndSwap(cur, min) {
			return
		}
	}
}

// ingestBatchSize bounds how many decoded events accumulate before one
// OfferBatch call: one route-table load and one batched handoff per
// query cover the whole group instead of every line paying both. An
// HTTP request body and a full-throttle replay hold a complete input
// and batch by count alone. A TCP connection may go quiet at any byte,
// so its reader also offers what it holds immediately before every read
// of the socket — the only place its decoder can block: no decoded
// event is ever held across a socket read, whatever the line framing.
const ingestBatchSize = 256

// edgeBatch holds the events one ingest stream has decoded and not yet
// offered.
type edgeBatch struct {
	s      *server
	events []*event.Event  // standalone: stamped on add
	inputs []cluster.Input // cluster mode: unstamped, the slot's owner assigns seq
}

func (s *server) newEdgeBatch() *edgeBatch {
	if s.cl != nil {
		return &edgeBatch{s: s, inputs: make([]cluster.Input, 0, ingestBatchSize)}
	}
	return &edgeBatch{s: s, events: make([]*event.Event, 0, ingestBatchSize)}
}

// add finalizes one decoded event and reports whether the batch is full.
func (b *edgeBatch) add(e *event.Event, hasTime bool) (full bool) {
	if b.s.cl != nil {
		b.inputs = append(b.inputs, cluster.Input{E: e, HasTime: hasTime})
		return len(b.inputs) == ingestBatchSize
	}
	b.s.stampTime(e, hasTime)
	b.s.stampSeq(e)
	b.events = append(b.events, e)
	return len(b.events) == ingestBatchSize
}

// offer fans the batch out with backpressure in one call and empties it;
// an empty batch costs nothing and reports the zero result.
func (b *edgeBatch) offer() (res cluster.RouteResult) {
	switch {
	case len(b.inputs) > 0:
		res = b.s.cl.OfferBatch(b.inputs)
		b.inputs = b.inputs[:0]
	case len(b.events) > 0:
		res.OfferResult = b.s.reg.OfferBatch(b.events)
		b.events = b.events[:0]
	}
	return res
}

// replay feeds a generated stream at the target rate (events/second),
// blocking on backpressure when the shards cannot keep up.
func (s *server) replay(ctx context.Context, work event.Stream, rate float64) int {
	start := time.Now()
	floor := s.replayFloor.Swap(0) // resume floor applies to one pass only
	n := 0
	// Full-throttle replay (rate <= 0) feeds the registry in batches so
	// the fan-out and per-query handoff amortize across the group.
	batch := make([]*event.Event, 0, ingestBatchSize)
	flush := func() {
		if len(batch) > 0 {
			s.reg.OfferBatch(batch)
			batch = batch[:0]
		}
	}
	for _, e := range work {
		if ctx.Err() != nil {
			flush()
			return n
		}
		if e.Seq < floor {
			// Below every query's recovered floor: re-offering it would be
			// pure fan-out overhead (per-query floors would drop it anyway).
			continue
		}
		// Replayed events keep their generated virtual timestamps: window
		// semantics stay deterministic regardless of the wall replay rate.
		if rate <= 0 {
			batch = append(batch, e)
			n++
			if len(batch) == ingestBatchSize {
				flush()
			}
			continue
		}
		// Pace by offered count, not stream index, so a resumed pass
		// does not burst through the skipped prefix's time budget.
		due := start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return n
			}
		}
		s.reg.Offer(e)
		n++
	}
	flush()
	return n
}

// statsPayload is the GET /stats body; the cluster's rolled-up stats
// endpoint reuses it per node.
func (s *server) statsPayload() any {
	return struct {
		registry.Snapshot
		UptimeSeconds float64 `json:"uptime_seconds"`
		BadLines      uint64  `json:"bad_lines"`
		StalledConns  uint64  `json:"stalled_conns"`
	}{s.reg.Snapshot(), time.Since(s.started).Seconds(), s.badLine.Load(), s.stalled.Load()}
}

// auth gates a handler behind the shared bearer token when -admin-token
// is set (constant-time compare); without a token it passes through.
func (s *server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adminToken != "" {
			want := "Bearer " + s.adminToken
			if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte(want)) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="cepserved"`)
				http.Error(w, "unauthorized", http.StatusUnauthorized)
				return
			}
		}
		h(w, r)
	}
}

// maxBody caps a request body; an overflowing read surfaces as
// *http.MaxBytesError in the handler's decoder (see bodyError).
func maxBody(n int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, n)
		h(w, r)
	}
}

// bodyError maps a body decode failure to 413 (body over the maxBody
// cap) or 400 (malformed content).
func bodyError(w http.ResponseWriter, err error, what string) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, what+": "+err.Error(), http.StatusBadRequest)
}

// withTimeout bounds one request end to end — a stalled admin client
// gets 503 instead of holding a handler goroutine. A zero duration
// means no bound (in-process tests build servers without the flag).
func withTimeout(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.TimeoutHandler(h, d, "request timed out")
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.statsPayload())
	})
	mux.HandleFunc("GET /deadletters", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.reg.DeadLetters())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var node []string
		if s.cl != nil {
			node = []string{"node", s.cl.Self()}
		}
		metrics.WriteProm(w, s.reg.Snapshot(), node...)
		metrics.WriteProm(w, runtime.InternTelemetry(), node...)
		if s.cl != nil {
			metrics.WriteProm(w, s.cl.Status(), node...)
		}
	})
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		if s.closing.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		// 429 only when EVERY serving query is at load rejection: one
		// overloaded tenant must not make the whole server turn away
		// events its neighbors would accept.
		if lvl := s.reg.MinDegradation(); lvl >= runtime.LevelReject {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: load rejection active", http.StatusTooManyRequests)
			return
		}
		accepted, rejected, overloaded, unrouted := s.ingest(r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"accepted":%d,"rejected":%d,"overloaded":%d,"unrouted":%d}`+"\n",
			accepted, rejected, overloaded, unrouted)
	})

	// Admin API: query and tenant lifecycle, no restart required.
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.reg.Snapshot().Queries)
	})
	mux.Handle("POST /queries", s.auth(maxBody(1<<20, func(w http.ResponseWriter, r *http.Request) {
		var spec registry.QuerySpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			bodyError(w, err, "bad query spec")
			return
		}
		in, err := s.reg.Add(spec)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "already registered") {
				code = http.StatusConflict
			}
			http.Error(w, err.Error(), code)
			return
		}
		if r.URL.Query().Get("wait") == "1" {
			in.WaitReady()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		// encoding/json, not %q: Go quoting renders a control byte in a
		// tenant or query name as \x01, which no JSON parser accepts.
		json.NewEncoder(w).Encode(struct {
			ID          string `json:"id"`
			Fingerprint string `json:"fingerprint"`
		}{spec.ID(), fmt.Sprintf("%016x", in.Fingerprint())})
	})))
	mux.Handle("DELETE /queries/{tenant}/{name}", withTimeout(s.adminTO, s.auth(func(w http.ResponseWriter, r *http.Request) {
		purge := r.URL.Query().Get("purge") == "1"
		if err := s.reg.Remove(r.PathValue("tenant"), r.PathValue("name"), purge); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})))
	pauseHandler := func(paused bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			tenant, name := r.PathValue("tenant"), r.PathValue("name")
			var err error
			if paused {
				err = s.reg.Pause(tenant, name)
			} else {
				err = s.reg.Resume(tenant, name)
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}
	}
	mux.Handle("POST /queries/{tenant}/{name}/pause", withTimeout(s.adminTO, s.auth(pauseHandler(true))))
	mux.Handle("POST /queries/{tenant}/{name}/resume", withTimeout(s.adminTO, s.auth(pauseHandler(false))))
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.reg.Tenants())
	})
	mux.Handle("PUT /tenants", withTimeout(s.adminTO, s.auth(maxBody(1<<20, func(w http.ResponseWriter, r *http.Request) {
		var t registry.Tenant
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			bodyError(w, err, "bad tenant")
			return
		}
		if err := s.reg.SetTenant(t); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))))

	// Profiling (net/http/pprof) shares the admin token — profiles leak
	// query text and memory contents, so they are as sensitive as the
	// mutating admin API. Deliberately NOT wrapped in withTimeout: a CPU
	// profile or execution trace holds the request open for its whole
	// sampling window (?seconds=N), which the admin timeout would
	// truncate mid-collection. `make profile` wraps the common case.
	mux.Handle("GET /debug/pprof/", s.auth(pprof.Index))
	mux.Handle("GET /debug/pprof/cmdline", s.auth(pprof.Cmdline))
	mux.Handle("GET /debug/pprof/profile", s.auth(pprof.Profile))
	mux.Handle("GET /debug/pprof/symbol", s.auth(pprof.Symbol))
	mux.Handle("POST /debug/pprof/symbol", s.auth(pprof.Symbol))
	mux.Handle("GET /debug/pprof/trace", s.auth(pprof.Trace))

	// Cluster control and data plane (docs/CLUSTER.md). Mutating routes
	// share the admin token; the handoff cap tracks the checkpoint
	// decoder's own snapshot-body bound.
	if s.cl != nil {
		mux.HandleFunc("GET /cluster", s.cl.HandleStatus)
		mux.HandleFunc("GET /cluster/health", s.cl.HandleHealth)
		mux.HandleFunc("GET /cluster/stats", s.cl.HandleClusterStats(s.statsPayload))
		mux.HandleFunc("GET /cluster/placement", s.cl.HandlePlacement)
		mux.Handle("POST /cluster/placement", withTimeout(s.adminTO, s.auth(maxBody(4<<20, s.cl.HandlePlacement))))
		mux.Handle("POST /cluster/forward", s.auth(maxBody(64<<20, s.cl.HandleForward)))
		mux.Handle("POST /cluster/handoff", withTimeout(2*time.Minute, s.auth(maxBody(1<<28+1<<20, s.cl.HandleHandoff))))
		mux.Handle("POST /cluster/move", withTimeout(2*time.Minute, s.auth(s.cl.HandleMove)))
		mux.HandleFunc("GET /cluster/peerview", s.cl.HandlePeerView)
		mux.HandleFunc("GET /cluster/audit", s.cl.HandleAudit)
		if s.loadTop != nil {
			mux.Handle("POST /cluster/reload", withTimeout(s.adminTO, s.auth(s.cl.HandleReload(s.loadTop))))
		}
	}
	return mux
}

// handleHealthz is the health/readiness probe: 200 while the server can
// accept work, 503 while draining, while EVERY serving query is at load
// rejection, or when every shard of every query has failed. The body
// always carries the detail a human (or a smarter prober) wants.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	totalShards := 0
	for _, q := range snap.Queries {
		totalShards += len(q.Runtime.Shards)
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case s.closing.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load() || snap.Recovering:
		status, code = "recovering", http.StatusServiceUnavailable
	case totalShards > 0 && snap.FailedShards >= totalShards:
		status, code = "failed", http.StatusServiceUnavailable
	case len(snap.Queries) > 0 && snap.MinDegradation >= runtime.LevelReject:
		status, code = "overloaded", http.StatusServiceUnavailable
	case snap.MaxDegradation > runtime.LevelNormal || snap.FailedShards > 0:
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"status":%q,"queries":%d,"degradation_level":%d,"failed_shards":%d,"restarts":%d,"quarantined":%d}`+"\n",
		status, len(snap.Queries), snap.MaxDegradation, snap.FailedShards, snap.Restarts, snap.Quarantined)
}

// ingest decodes NDJSON from r, fanning valid events out to every
// subscribed query. Undecodable lines are quarantined to the registry's
// edge dead-letter queue with their line number and a truncated
// payload; (event, query) pairs a ladder rejects at the door count as
// overloaded; events no query subscribes to count as unrouted.
func (s *server) ingest(r io.Reader) (accepted, rejected, overloaded, unrouted int) {
	dec := runtime.NewLineDecoder(r, 1<<20)
	batch := s.newEdgeBatch()
	flush := func() {
		res := batch.offer()
		accepted += res.Deliveries + res.ForwardedPairs
		overloaded += res.DoorRejected + res.DroppedPairs
		unrouted += res.Unrouted
	}
	for {
		e, hasTime, err := dec.Next()
		if err != nil {
			var lerr *runtime.LineError
			if errors.As(err, &lerr) {
				rejected++
				s.badLine.Add(1)
				s.reg.Quarantine(lerr.Error(), lerr.Payload)
				continue
			}
			flush()
			return accepted, rejected, overloaded, unrouted // EOF or read failure
		}
		if batch.add(e, hasTime) {
			flush()
		}
	}
}

// deadlineConn is a TCP ingest connection's read side. Before every read
// of the socket it calls beforeRead — serveConn offers its batch there,
// which is what keeps a decoded event from waiting on the peer's next
// write — and re-arms the read deadline, so the connection dies tcpIdle
// after the producer stops sending rather than holding a goroutine
// forever.
type deadlineConn struct {
	net.Conn
	idle       time.Duration
	beforeRead func()
}

func (c deadlineConn) Read(p []byte) (int, error) {
	c.beforeRead()
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (s *server) trackConn(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
}

func (s *server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// closeConns force-closes every live TCP ingest connection; called at
// drain time so stalled producers cannot delay shutdown.
func (s *server) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

func (s *server) serveTCP(ctx context.Context, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.closing.Load() {
				return
			}
			log.Printf("cepserved: tcp accept: %v", err)
			return
		}
		go s.serveConn(conn)
	}
}

// serveConn ingests one TCP NDJSON connection under the idle deadline,
// offering decoded events in batches: when ingestBatchSize are in hand,
// before every socket read (deadlineConn), and before returning. When
// every subscribed query rejects a batch it best-effort NACKs once per
// rejection burst so a well-behaved producer can back off; the write
// carries its own short deadline so a consumer that has also stalled
// its read side cannot block us.
func (s *server) serveConn(conn net.Conn) {
	s.trackConn(conn)
	defer func() {
		s.untrackConn(conn)
		conn.Close()
	}()
	batch := s.newEdgeBatch()
	nacked := false
	offer := func() {
		switch res := batch.offer(); {
		case res.Events == 0: // nothing decoded since the last offer
		case res.DoorRejected == 0 || res.Deliveries > 0:
			nacked = false
		case !nacked:
			nacked = true
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			fmt.Fprintf(conn, `{"nack":"overloaded","degradation_level":%d}`+"\n", s.reg.MinDegradation())
		}
	}
	dec := runtime.NewLineDecoder(deadlineConn{Conn: conn, idle: s.tcpIdle, beforeRead: offer}, 1<<20)
	for {
		e, hasTime, err := dec.Next()
		if err != nil {
			var lerr *runtime.LineError
			if errors.As(err, &lerr) {
				s.badLine.Add(1)
				s.reg.Quarantine(lerr.Error(), lerr.Payload)
				continue
			}
			offer() // a read that returned bytes and an error leaves its lines decoded
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.stalled.Add(1)
				log.Printf("cepserved: tcp %s stalled for %s; closing", conn.RemoteAddr(), s.tcpIdle)
			}
			return
		}
		if batch.add(e, hasTime) {
			offer()
		}
	}
}

// appendMatchLines appends one -print-matches line per match. Tenant and
// query names may hold any byte but '/', so they are JSON-escaped like
// every other string on the line.
func appendMatchLines(dst []byte, spec registry.QuerySpec, shard int, ms []engine.Match) []byte {
	for i := range ms {
		dst = append(dst, `{"tenant":`...)
		dst = runtime.AppendJSONString(dst, spec.Tenant)
		dst = append(dst, `,"query":`...)
		dst = runtime.AppendJSONString(dst, spec.Name)
		dst = append(dst, `,"match":`...)
		dst = runtime.AppendMatch(dst, shard, ms[i])
		dst = append(dst, "}\n"...)
	}
	return dst
}

// strategyFactory builds the per-shard strategy constructor. Every shard
// gets its own instance (strategies are stateful). Hybrid trains its cost
// model once per factory (training is seeded: every shard would get the
// same model) and hands each shard a clone, so online adaptation never
// shares state.
func strategyFactory(name string, m *nfa.Machine, train event.Stream, bound event.Time, seed int64) (func(int) shed.Strategy, error) {
	needTrain := func() error {
		if len(train) == 0 {
			return fmt.Errorf("strategy %s needs training data: run with -dataset", name)
		}
		return nil
	}
	switch name {
	case "None":
		return nil, nil
	case "RI":
		return func(i int) shed.Strategy { return baseline.NewRandomInput(bound, seed+int64(i)) }, nil
	case "RS":
		return func(i int) shed.Strategy { return baseline.NewRandomState(bound, seed+int64(i)) }, nil
	case "SI":
		if err := needTrain(); err != nil {
			return nil, err
		}
		return func(i int) shed.Strategy {
			return baseline.NewSelectivityInput(baseline.EstimateSelectivity(m, train), bound, seed+int64(i))
		}, nil
	case "SS":
		if err := needTrain(); err != nil {
			return nil, err
		}
		return func(i int) shed.Strategy {
			return baseline.NewSelectivityState(baseline.EstimateSelectivity(m, train), bound, seed+int64(i))
		}, nil
	case "PI":
		if err := needTrain(); err != nil {
			return nil, err
		}
		return func(i int) shed.Strategy {
			return baseline.NewPositionInput(baseline.EstimatePositionUtility(m, train), bound, seed+int64(i))
		}, nil
	case "Hybrid", "HyI", "HyS":
		if err := needTrain(); err != nil {
			return nil, err
		}
		mode := core.ModeHybrid
		if name == "HyI" {
			mode = core.ModeInputOnly
		} else if name == "HyS" {
			mode = core.ModeStateOnly
		}
		var (
			once     sync.Once
			model    *core.Model
			trainErr error
		)
		return func(i int) shed.Strategy {
			once.Do(func() { model, trainErr = core.Train(m, train, core.TrainConfig{Slices: 4, Seed: 1}) })
			if trainErr != nil {
				panic(trainErr) // as MustTrain: every shard fails the same way
			}
			return core.NewHybrid(model.Clone(), core.Config{Bound: bound, Mode: mode, Adapt: true, AsyncPlan: true})
		}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}
