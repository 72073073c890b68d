// Package registry turns the single-query runtime into a multi-query,
// multi-tenant serving surface. A Registry holds N compiled queries —
// each wrapped in its own runtime.Runtime (own shards, queues,
// degradation ladder, supervisor, durable state directory) — and fans
// one decoded input stream out to every subscribed query by event type:
// a line is decoded once, then routed to each query whose pattern
// mentions its type, preserving the batched OfferBatch handoff per
// query. Shard ownership is effectively keyed by (query, key): every
// instance's runtime gets KeySalt = the query fingerprint, so one hot
// correlation key lands on different shard indices for different
// queries instead of piling every query's work onto one worker.
//
// Queries are added, paused, and removed at runtime (no restart): Add
// compiles and validates the query text and its strategy before
// anything is activated, and membership changes swap an immutable route
// table under an atomic pointer, so the fan-out path never takes the
// lifecycle lock. One fan-out pass (OfferPlaced) walks each event's
// subscribers once and decides every (event, query) pair where it walks
// it. With durability enabled the registry keeps one input log for the
// stream (StateDir/log): the pass appends each accepted event once,
// with a refusal record for every subscriber that did not take it. Each query keeps its shard snapshots in its own
// fingerprinted directory and the membership itself is recorded in a
// manifest (registry.json), so a restart re-registers every query and
// recovers each one's shards by re-routing the log from their snapshots
// — including queries that were added mid-stream.
//
// Cross-query isolation — one tenant's pathological query degrading
// itself rather than its neighbors — is the arbiter's job; see
// arbiter.go.
package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cepshed/internal/checkpoint"
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/nfa"
	"cepshed/internal/query"
	"cepshed/internal/runtime"
	"cepshed/internal/shed"
)

// Tenant is the unit of isolation and accounting: every query belongs
// to exactly one tenant, and the arbiter's fair-share guarantee is
// stated per tenant, not per query.
type Tenant struct {
	Name string `json:"name"`
	// Theta is the tenant's latency bound θ, inherited by queries that
	// don't override it (zero: registry default).
	Theta time.Duration `json:"theta_ns,omitempty"`
	// Priority weights the tenant's fair share of processing capacity
	// (default 1). A priority-2 tenant is entitled to twice the share of
	// a priority-1 tenant before the arbiter tightens its queries' bound.
	Priority float64 `json:"priority,omitempty"`
	// ShedBudget caps the excess fraction x the arbiter may set on
	// this tenant's queries, in [0,1] (default 1: as much as fairness
	// requires, up to 0.95). A tenant that pays for full fidelity sets a
	// small budget and accepts latency instead.
	ShedBudget float64 `json:"shed_budget,omitempty"`
}

func (t Tenant) withDefaults() Tenant {
	if t.Priority <= 0 {
		t.Priority = 1
	}
	if t.ShedBudget <= 0 || t.ShedBudget > 1 {
		t.ShedBudget = 1
	}
	return t
}

// QuerySpec describes one registered query. Tenant+Name identify it;
// the rest parameterizes its runtime.
type QuerySpec struct {
	Tenant string `json:"tenant" prom:"tenant,label"`
	Name   string `json:"name" prom:"query,label"`
	// Query is the query text (parsed and compiled at Add time).
	Query string `json:"query"`
	// Strategy names the shedding strategy for this query's shards
	// (interpreted by Config.NewStrategy; empty = its default).
	Strategy string `json:"strategy,omitempty"`
	// Theta overrides the tenant latency bound for this query.
	Theta time.Duration `json:"theta_ns,omitempty"`
	// Shards overrides the registry default shard count.
	Shards int `json:"shards,omitempty"`
	// Paused records the paused state across restarts: a paused query
	// stays registered (and durable) but receives no events.
	Paused bool `json:"paused,omitempty"`
}

// ID returns the registry key "tenant/name".
func (s QuerySpec) ID() string { return s.Tenant + "/" + s.Name }

// Config configures a Registry.
type Config struct {
	// Shards / QueueLen are per-query runtime defaults (runtime.Config);
	// every query's shards share the registry's one worker pool.
	Shards   int
	QueueLen int
	// DefaultTheta is the latency bound for tenants that don't set one.
	// Zero disables the degradation ladder for such queries.
	DefaultTheta time.Duration
	// StateDir enables durability: each query checkpoints into
	// StateDir/q-<fingerprint>/ and the membership manifest is
	// StateDir/registry.json. Empty: everything is in-memory.
	StateDir string
	// Durability is the checkpoint template applied to each query
	// (Dir is overridden per query). Nil with StateDir set: defaults.
	Durability *checkpoint.Config
	// NewStrategy builds a per-shard strategy factory for a query, or
	// fails validation (e.g. unknown strategy name, strategy requiring a
	// training stream that isn't loaded). Nil: no shedding strategies.
	NewStrategy func(spec QuerySpec, m *nfa.Machine, bound time.Duration) (func(shard int) shed.Strategy, error)
	// OnMatches receives each query's matches as runtime.Config.OnMatches
	// delivers them — one call per shard batch that produced any, never
	// concurrently for one shard of one query, ms valid only during the
	// call — and must tolerate concurrent calls from different shards
	// and queries.
	OnMatches func(spec QuerySpec, shard int, ms []engine.Match)
	// Arbiter configures the cross-query shedding arbiter.
	Arbiter ArbiterConfig
	// TuneRuntime, when set, may adjust each query's runtime.Config
	// after the registry has built it and before the runtime starts.
	// It exists for tests (fault injection, restart policies).
	TuneRuntime func(spec QuerySpec, rc *runtime.Config)
	// Logf receives lifecycle messages. Nil: silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// manifest is the durable membership record.
type manifest struct {
	Tenants []Tenant    `json:"tenants"`
	Queries []QuerySpec `json:"queries"`
}

// Instance is one registered query: spec + compiled machine + running
// runtime + the registry-side routing state.
type Instance struct {
	reg  *Registry
	spec QuerySpec
	// fp fingerprints (tenant, name, query text): it salts the shard
	// hash, names the per-query state directory, and — combined with the
	// runtime's own query/sharding fingerprint inside that directory —
	// binds recovered state to exactly this registered query.
	fp    uint64
	dir   string
	m     *nfa.Machine
	rt    *runtime.Runtime
	types []string // pattern event types, sorted, deduplicated

	// ready flips once recovery finished and the instance joined the
	// route table; readyCh closes at the same moment (WaitReady).
	ready   atomic.Bool
	readyCh chan struct{}
	// floor is the exactly-once gate after recovery: events with
	// Seq < floor were already applied by this instance's restored state
	// and are dropped at fan-out. Zero: nothing was restored (a restored
	// floor is the highest restored seq + 1).
	floor atomic.Uint64

	// disp counts the door-tier disposition of every pair routed to
	// this query (the fan-out pass's share.settle adds to it); it feeds
	// the registry's ledger, which outlives Remove.
	disp *shed.Ledger

	// Arbiter scratch, owned by the arbiter goroutine (see arbiter.go).
	arb arbScratch
}

// Spec returns the instance's spec (Paused reflects registration time;
// use Registry.Status for live state).
func (in *Instance) Spec() QuerySpec { return in.spec }

// Fingerprint returns the registry-level fingerprint.
func (in *Instance) Fingerprint() uint64 { return in.fp }

// Runtime exposes the wrapped runtime (tests and stats).
func (in *Instance) Runtime() *runtime.Runtime { return in.rt }

// WaitReady blocks until the instance finished recovery and joined the
// route table (or was removed first).
func (in *Instance) WaitReady() { <-in.readyCh }

// routeRef binds an instance to its dense index in the route table's
// scratch space.
type routeRef struct {
	inst *Instance
	idx  int
}

// routeTable is the immutable fan-out index: byType lists, for each
// event type, every active (ready, unpaused) instance subscribed to
// it. Membership changes build a fresh table and swap the pointer; the
// offer path only ever loads it.
type routeTable struct {
	insts  []*Instance
	byType map[string][]routeRef
}

// DeadLetter is a runtime dead letter annotated with the query it
// belongs to (empty Tenant/Query: a registry-edge letter, e.g. an
// undecodable line quarantined before routing).
type DeadLetter struct {
	Tenant string `json:"tenant,omitempty"`
	Query  string `json:"query,omitempty"`
	runtime.DeadLetter
}

// Registry is the multi-query serving core. Create with Open, feed
// with Offer/OfferBatch, manage with Add/Remove/Pause/Resume, stop
// with Close.
type Registry struct {
	cfg     Config
	arb     *arbiter
	pool    *runtime.Pool     // serves every query's shards
	dur     checkpoint.Config // resolved template (Dir unset), valid when durable
	durable bool

	route atomic.Pointer[routeTable]

	// log is the stream's input log when durable. offerMu orders every
	// offer's pass — its verdicts, log records and queue pushes, so that
	// log order is each shard's queue order, which replay depends on —
	// against each other and against route table changes, so a query's
	// membership and the log agree, and whoever takes offerMu finds every
	// logged pair in its queue. batch is the append scratch, under
	// offerMu. Lock order: offerMu, then mu, then the locks a Place
	// callback takes; nothing takes offerMu while holding one of those.
	log     *checkpoint.Log
	offerMu sync.Mutex
	batch   checkpoint.Batch

	// mu guards lifecycle: insts/tenants maps, route rebuilds, manifest
	// saves. The offer path never takes it.
	mu      sync.Mutex
	insts   map[string]*Instance
	tenants map[string]Tenant
	closed  bool

	// Edge dead letters: inputs rejected before they were routable
	// (undecodable lines). Kept registry-side so per-query counters stay
	// meaningful; persisted into StateDir's root when durable, each save
	// under edgeMu so two quarantines never share the temp file.
	edge   runtime.DeadLetterRing
	edgeMu sync.Mutex

	// disp is the registry-wide disposition ledger: every instance's
	// ledger feeds it, and Unrouted is counted here directly.
	disp shed.Ledger

	fanPool sync.Pool // *fan scratch for OfferBatch
}

// edgeDLQOwner namespaces the edge dead-letter checkpoint's temp file
// far away from any per-query shard owner.
const edgeDLQOwner = 1 << 20

// logDir is the input log's directory under StateDir; logFP binds its
// segment headers to the registry.
const logDir = "log"

var logFP = checkpoint.Fingerprint("registry", "input-log")

// Open builds a registry and — when StateDir is set — re-registers
// every tenant and query recorded in its manifest, recovering each
// query's durable state. Queries that no longer compile (manifest from
// a newer/older build) are logged and skipped, never fatal: the
// registry must come up with whatever subset is servable.
func Open(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	g := &Registry{
		cfg:     cfg,
		insts:   map[string]*Instance{},
		tenants: map[string]Tenant{},
		pool:    runtime.NewPool(),
	}
	g.route.Store(&routeTable{byType: map[string][]routeRef{}})
	if cfg.StateDir != "" {
		g.durable = true
		if cfg.Durability != nil {
			g.dur = cfg.Durability.WithDefaults()
		} else {
			g.dur = checkpoint.Config{}.WithDefaults()
		}
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: state dir: %w", err)
		}
		log, err := checkpoint.OpenLog(g.dur, filepath.Join(cfg.StateDir, logDir), logFP)
		if err != nil {
			return nil, fmt.Errorf("registry: input log: %w", err)
		}
		g.log = log
		if st, err := checkpoint.LoadDeadLetters(cfg.StateDir); err != nil {
			g.logf("registry: edge dead-letter checkpoint unreadable, starting empty: %v", err)
		} else if st != nil {
			g.edge.Seed(st)
		}
		var man manifest
		ok, err := checkpoint.LoadManifest(g.manifestPath(), &man)
		if err != nil {
			// Neither manifest generation decoded. Starting empty — with the
			// damage rotated aside for the postmortem — beats refusing to
			// start: queries can be re-registered over the admin API while a
			// dead process serves nothing, and cluster failover makes a torn
			// manifest far more likely than a single node ever did.
			g.logf("registry: manifest unreadable, starting with no queries (rotated to .corrupt): %v", err)
			if rerr := os.Rename(g.manifestPath(), g.manifestPath()+".corrupt"); rerr != nil && !os.IsNotExist(rerr) {
				g.logf("registry: manifest rotate failed: %v", rerr)
			}
		}
		var boot []*Instance
		if ok {
			for _, t := range man.Tenants {
				g.tenants[t.Name] = t.withDefaults()
			}
			for _, spec := range man.Queries {
				in, err := g.add(spec, false)
				if err != nil {
					g.logf("registry: manifest query %s not restored: %v", spec.ID(), err)
					continue
				}
				boot = append(boot, in)
			}
		}
		// The manifest's queries are the log's only boot readers.
		go func() {
			for _, in := range boot {
				<-in.readyCh
			}
			log.EndBoot()
		}()
	}
	g.arb = newArbiter(g, cfg.Arbiter)
	return g, nil
}

func (g *Registry) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

func (g *Registry) manifestPath() string {
	return filepath.Join(g.cfg.StateDir, "registry.json")
}

// persistManifestLocked saves the membership manifest; callers hold mu.
func (g *Registry) persistManifestLocked() {
	if !g.durable {
		return
	}
	var man manifest
	for _, t := range g.tenants {
		man.Tenants = append(man.Tenants, t)
	}
	sort.Slice(man.Tenants, func(i, j int) bool { return man.Tenants[i].Name < man.Tenants[j].Name })
	for _, in := range g.insts {
		man.Queries = append(man.Queries, in.spec)
	}
	sort.Slice(man.Queries, func(i, j int) bool { return man.Queries[i].ID() < man.Queries[j].ID() })
	if err := checkpoint.SaveManifest(g.manifestPath(), man, g.dur.Fsync); err != nil {
		g.logf("registry: manifest save failed: %v", err)
	}
}

// SetTenant registers or updates a tenant. Updates apply to future
// queries immediately and to the arbiter's next tick; a changed Theta
// does not re-bound already-running queries (their ladders were built
// with the bound resolved at Add time).
func (g *Registry) SetTenant(t Tenant) error {
	if t.Name == "" || strings.Contains(t.Name, "/") {
		return fmt.Errorf("registry: invalid tenant name %q", t.Name)
	}
	if t.ShedBudget < 0 || t.ShedBudget > 1 {
		return fmt.Errorf("registry: tenant %s: shed budget %v outside [0,1]", t.Name, t.ShedBudget)
	}
	if t.Priority < 0 {
		return fmt.Errorf("registry: tenant %s: negative priority", t.Name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("registry: closed")
	}
	g.tenants[t.Name] = t.withDefaults()
	g.persistManifestLocked()
	return nil
}

// Tenants returns the registered tenants, sorted by name.
func (g *Registry) Tenants() []Tenant {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (g *Registry) tenant(name string) Tenant {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.tenants[name]; ok {
		return t
	}
	return Tenant{Name: name}.withDefaults()
}

// Add compiles, validates, and registers a query, then activates it
// once its durable state (if any) has recovered. The returned instance
// is registered immediately — visible in Status, checkpointing once
// active — but joins the fan-out route table only after recovery, so
// live input never races a replay. Callers that need the query serving
// use Instance.WaitReady.
func (g *Registry) Add(spec QuerySpec) (*Instance, error) {
	return g.add(spec, true)
}

func (g *Registry) add(spec QuerySpec, persist bool) (*Instance, error) {
	if spec.Tenant == "" || strings.Contains(spec.Tenant, "/") {
		return nil, fmt.Errorf("registry: invalid tenant %q", spec.Tenant)
	}
	if spec.Name == "" || strings.Contains(spec.Name, "/") {
		return nil, fmt.Errorf("registry: invalid query name %q", spec.Name)
	}
	// Compile-and-validate BEFORE any registration side effect: a bad
	// query must be a clean 4xx, not a half-registered instance.
	q, err := query.Parse(spec.Query)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: parse: %w", spec.ID(), err)
	}
	m, err := nfa.Compile(q)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: compile: %w", spec.ID(), err)
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = g.cfg.Shards
	}
	if err := runtime.CheckCountWindow(q, shards); err != nil {
		return nil, fmt.Errorf("registry: %s: %w", spec.ID(), err)
	}
	ten := g.tenant(spec.Tenant)
	bound := spec.Theta
	if bound <= 0 {
		bound = ten.Theta
	}
	if bound <= 0 {
		bound = g.cfg.DefaultTheta
	}
	var newStrat func(int) shed.Strategy
	if g.cfg.NewStrategy != nil {
		newStrat, err = g.cfg.NewStrategy(spec, m, bound)
		if err != nil {
			return nil, fmt.Errorf("registry: %s: strategy: %w", spec.ID(), err)
		}
	}

	in := &Instance{
		reg:     g,
		spec:    spec,
		fp:      checkpoint.Fingerprint("registry", spec.Tenant, spec.Name, spec.Query),
		m:       m,
		readyCh: make(chan struct{}),
		disp:    shed.NewLedger(&g.disp),
	}
	seen := map[string]bool{}
	for i := range q.Pattern {
		typ := q.Pattern[i].Type
		if seen[typ] {
			continue
		}
		seen[typ] = true
		in.types = append(in.types, typ)
	}
	sort.Strings(in.types)

	rc := runtime.Config{
		Shards:      shards,
		QueueLen:    g.cfg.QueueLen,
		KeySalt:     in.fp,
		NewStrategy: newStrat,
		Bound:       bound,
		Logf: func(format string, args ...any) {
			g.logf("%s: "+format, append([]any{spec.ID()}, args...)...)
		},
	}
	if onMatches := g.cfg.OnMatches; onMatches != nil {
		rc.OnMatches = func(shard int, ms []engine.Match) { onMatches(spec, shard, ms) }
	}
	if g.durable {
		in.dir = filepath.Join(g.cfg.StateDir, in.StateDirName())
	}
	if g.cfg.TuneRuntime != nil {
		g.cfg.TuneRuntime(spec, &rc)
	}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, fmt.Errorf("registry: closed")
	}
	if _, dup := g.insts[spec.ID()]; dup {
		g.mu.Unlock()
		return nil, fmt.Errorf("registry: %s already registered", spec.ID())
	}
	// Only a query the manifest restores was being fed when the process
	// stopped, and only an unpaused one: its shards replay the log. A
	// query added now replays nothing (a re-added one restores the final
	// snapshot its removal took).
	var accept func(*event.Event) bool
	if !persist && !spec.Paused {
		accept = func(e *event.Event) bool { return in.subscribes(e.Type) }
	}
	in.rt = runtime.NewShared(m, rc, g.pool, g.log, in.dir, accept)
	g.insts[spec.ID()] = in
	g.mu.Unlock()

	// Activation is asynchronous: the instance joins the route table
	// only after its shards finished restore-and-replay, so fan-out
	// input cannot interleave with log replay, and the recovery floor is
	// in place before the first live event is routed. The barrier
	// snapshots every shard with its floor at the log's routed
	// watermark, so no later recovery replays the events routed before
	// the query joined; the manifest records the query only then.
	go func() {
		in.rt.WaitRecovered()
		var floor uint64
		if info := in.rt.RecoveryInfo(); info.Restored {
			floor = info.MaxSeq + 1
		}
		g.offerMu.Lock()
		g.barrier(in)
		in.floor.Store(floor)
		g.mu.Lock()
		if g.insts[spec.ID()] == in && !g.closed {
			in.ready.Store(true)
			g.rebuildRouteLocked()
			if persist {
				g.persistManifestLocked()
			}
		}
		g.mu.Unlock()
		g.offerMu.Unlock()
		close(in.readyCh)
	}()
	return in, nil
}

// barrier raises in's activation barrier at the log's routed watermark
// (see runtime.Barrier). A query about to join the fan-out calls it
// under offerMu, so no event is routed in between; a pausing one has
// already left the route table. The live recovery floor stays as
// recovery left it: the barrier bounds what a later recovery replays,
// not what the query is offered. Without a log it does nothing.
func (g *Registry) barrier(in *Instance) {
	if g.log == nil {
		return
	}
	w, ok := g.log.Routed()
	if err := in.rt.Barrier(w, ok); err != nil {
		g.logf("registry: %s: activation barrier: %v", in.spec.ID(), err)
	}
}

// subscribes reports whether the query's pattern mentions typ.
func (in *Instance) subscribes(typ string) bool {
	i := sort.SearchStrings(in.types, typ)
	return i < len(in.types) && in.types[i] == typ
}

// Remove unregisters a query and drains its runtime gracefully (final
// snapshot included when durable). purge additionally deletes its
// state directory — the difference between "stop serving this query"
// and "forget it ever existed".
func (g *Registry) Remove(tenant, name string, purge bool) error {
	id := tenant + "/" + name
	g.offerMu.Lock()
	g.mu.Lock()
	in, ok := g.insts[id]
	if !ok {
		g.mu.Unlock()
		g.offerMu.Unlock()
		return fmt.Errorf("registry: %s not registered", id)
	}
	delete(g.insts, id)
	g.rebuildRouteLocked()
	g.persistManifestLocked()
	g.mu.Unlock()
	g.offerMu.Unlock()
	// Close outside the locks: draining can take a while and must not
	// block offers or unrelated lifecycle operations. Every offer that
	// routed to the query pushed its pairs under offerMu, before it left
	// the route table.
	in.rt.Close()
	if purge && in.dir != "" {
		if err := os.RemoveAll(in.dir); err != nil {
			g.logf("registry: %s: purge: %v", id, err)
		}
	}
	return nil
}

// Pause stops routing events to a query while keeping it registered,
// warm, and durable. Resume reverses it.
func (g *Registry) Pause(tenant, name string) error { return g.setPaused(tenant, name, true) }

// Resume re-activates a paused query.
func (g *Registry) Resume(tenant, name string) error { return g.setPaused(tenant, name, false) }

// A pause leaves the fan-out first, then snapshots every shard behind
// the events already routed to it (floored at the routed watermark),
// and only then records itself in the manifest: a recovery of a paused
// query restores that snapshot and replays nothing. A resume raises the
// activation barrier before it rejoins the fan-out.
func (g *Registry) setPaused(tenant, name string, paused bool) error {
	id := tenant + "/" + name
	g.offerMu.Lock()
	g.mu.Lock()
	in, ok := g.insts[id]
	if !ok || in.spec.Paused == paused {
		g.mu.Unlock()
		g.offerMu.Unlock()
		if !ok {
			return fmt.Errorf("registry: %s not registered", id)
		}
		return nil
	}
	if paused {
		in.spec.Paused = true
		g.rebuildRouteLocked()
		g.mu.Unlock()
		g.offerMu.Unlock()
		g.barrier(in)
		g.mu.Lock()
		g.persistManifestLocked()
		g.mu.Unlock()
		return nil
	}
	g.mu.Unlock()
	g.barrier(in)
	g.mu.Lock()
	in.spec.Paused = false
	g.rebuildRouteLocked()
	g.persistManifestLocked()
	g.mu.Unlock()
	g.offerMu.Unlock()
	return nil
}

// Get returns a registered instance by id.
func (g *Registry) Get(tenant, name string) (*Instance, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	in, ok := g.insts[tenant+"/"+name]
	return in, ok
}

// instances returns every registered instance, sorted by id.
func (g *Registry) instances() []*Instance {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Instance, 0, len(g.insts))
	for _, in := range g.insts {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.ID() < out[j].spec.ID() })
	return out
}

// rebuildRouteLocked recomputes the immutable route table from current
// membership; callers hold mu.
func (g *Registry) rebuildRouteLocked() {
	rt := &routeTable{byType: map[string][]routeRef{}}
	ids := make([]string, 0, len(g.insts))
	for id := range g.insts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		in := g.insts[id]
		if !in.ready.Load() || in.spec.Paused {
			continue
		}
		ref := routeRef{inst: in, idx: len(rt.insts)}
		rt.insts = append(rt.insts, in)
		for _, typ := range in.types {
			rt.byType[typ] = append(rt.byType[typ], ref)
		}
	}
	g.route.Store(rt)
}

// OfferResult accounts one OfferBatch or OfferSlot call. Events and
// Unrouted count input events; the rest count (event, query) pairs —
// one event fanned out to three queries contributes three — by the
// shed.Disposition they ended in.
type OfferResult struct {
	// Events is the input batch size.
	Events int
	// Deliveries (shed.Delivered), DoorRejected (shed.Rejected: the
	// overload signal), FloorSkipped.
	Deliveries, DoorRejected, FloorSkipped int
	// Unrouted counts events no registered query subscribes to.
	Unrouted int
}

// Add folds another call's pairs into r; Events and Unrouted, which
// count input events, are the caller's to keep.
func (r *OfferResult) Add(o OfferResult) {
	r.Deliveries += o.Deliveries
	r.DoorRejected += o.DoorRejected
	r.FloorSkipped += o.FloorSkipped
}

// MinDegradation returns the lowest degradation-ladder level across
// active (ready, unpaused) queries, or -1 when none are active. It is
// the whole-server load-rejection signal — reject new input only when
// EVERY serving query refuses it. Each query's ladder is refreshed from
// its live signals (a walk over its shards and a clock read): a server
// answering 429 offers nothing, so nothing else would de-escalate it.
func (g *Registry) MinDegradation() int {
	rt := g.route.Load()
	min := -1
	for _, in := range rt.insts {
		lvl := in.rt.DegradationLevel()
		if min < 0 || lvl < min {
			min = lvl
		}
	}
	return min
}

// admit is the per-query half of the admission chain
// (docs/ROBUSTNESS.md): the recovery floor. shed.Delivered means "not
// refused here" — the runtime's door has the last word.
func (in *Instance) admit(e *event.Event) shed.Disposition {
	if e.Seq < in.floor.Load() {
		return shed.FloorSkipped
	}
	return shed.Delivered
}

// fan is one offer's scratch, reused through fanPool: a share per
// instance the offer can reach (the route table's, in its order) and the
// current event's per-subscriber "taken by key" flags.
type fan struct {
	shares []share
	byKey  []bool
	// top is the highest seq among the events with a pair on this node;
	// routed says there was one.
	top    uint64
	routed bool
}

// share is one query's part of an offer: the pairs its door admitted,
// each with its target slot (< 0: its key's shard), and the pairs its
// recovery floor skipped. The query's door opens — its ladder refreshes
// — at its first pair of the offer.
type share struct {
	in     *Instance
	gate   runtime.Gate
	open   bool
	events []*event.Event
	slots  []int
	floor  int
	claim  runtime.Claim // the admitted pairs, pushed onto their shard queues
}

func (g *Registry) getFan() *fan {
	f, _ := g.fanPool.Get().(*fan)
	if f == nil {
		f = &fan{}
	}
	return f
}

func (g *Registry) putFan(f *fan) {
	for i := range f.shares {
		sh := &f.shares[i]
		clear(sh.events)
		*sh = share{events: sh.events[:0], slots: sh.slots[:0], claim: sh.claim}
	}
	f.shares, f.top, f.routed = f.shares[:0], 0, false
	g.fanPool.Put(f)
}

// add appends in's share, keeping the capacity a pooled fan had.
func (f *fan) add(in *Instance) *share {
	n := len(f.shares)
	if n < cap(f.shares) {
		f.shares = f.shares[:n+1]
	} else {
		f.shares = append(f.shares, share{})
	}
	sh := &f.shares[n]
	sh.in = in
	return sh
}

// local notes an event with a pair on this node: the log's routed
// watermark covers it once the offer has pushed its pairs.
func (f *fan) local(e *event.Event) {
	f.top, f.routed = max(f.top, e.Seq), true
}

// admit runs the query's admission chain over one pair bound for shard
// slot (< 0: its key's shard): the recovery floor, then the runtime
// door. An admitted pair joins the share.
func (sh *share) admit(e *event.Event, slot int, now time.Time) bool {
	if sh.in.admit(e) == shed.FloorSkipped {
		sh.floor++
		return false
	}
	if !sh.open {
		sh.gate, sh.open = sh.in.rt.Gate(now), true
	}
	if !sh.gate.Admits(slot, e) {
		return false
	}
	sh.events, sh.slots = append(sh.events, e), append(sh.slots, slot)
	return true
}

// settle waits for room where the share's claim filled a queue — after
// the offer released offerMu — and counts every pair's disposition in
// the query's ledger.
func (sh *share) settle() OfferResult {
	res := OfferResult{FloorSkipped: sh.floor}
	if sh.open {
		res.DoorRejected = sh.gate.Done()
	}
	if n := len(sh.events); n > 0 {
		res.Deliveries = sh.in.rt.Deliver(&sh.claim)
		res.DoorRejected += n - res.Deliveries
	}
	sh.in.disp.Add(shed.Delivered, res.Deliveries)
	sh.in.disp.Add(shed.Rejected, res.DoorRejected)
	sh.in.disp.Add(shed.FloorSkipped, res.FloorSkipped)
	return res
}

// Place decides whether one (event, query) pair runs on this node, for
// a caller that spreads a query's shard slots over several nodes (the
// cluster router), placing each pair by the slot its key hashes to
// (Instance.ShardSlot, after stamping the event's seq). It returns true
// when the pair runs here, on that slot, and false when it does not —
// the callback has then forwarded or dropped the pair and counted that.
// It runs under the registry's offer lock, so it must neither offer nor
// wait on anything that does.
type Place func(in *Instance, e *event.Event) (local bool)

// OfferBatch fans a decoded batch out to every subscribed query, each
// pair to the shard its key hashes to (see OfferPlaced). Blocking
// semantics per query match runtime.OfferBatch: a query whose shard
// queues are full makes the caller wait, after every query has its
// pairs; queries at LevelReject refuse their pairs without blocking
// anyone.
func (g *Registry) OfferBatch(events []*event.Event) OfferResult {
	return g.OfferPlaced(events, nil)
}

// OfferPlaced is the fan-out pass: one walk over each event's
// subscribers that gives every (event, query) pair its verdict where it
// is decided — not local (place said so), skipped below the query's
// recovery floor, refused by its door, or admitted to the shard its key
// hashes to. A nil place runs every pair here. Each query's admitted
// pairs reach its shards as one share, in batch order.
//
// The walk, the verdicts and the pushes of the admitted pairs onto
// their shard queues happen under offerMu — with, when durable, the
// batch's append to the input log, so that log order is every shard's
// queue order. A push never blocks: the offer waits for room on a queue
// it filled past QueueLen only after releasing offerMu, so a full queue
// holds back neither other producers nor other queries' pairs. offerMu
// also orders every route-table change, so the table the walk loads is
// the one the log describes. A durable registry logs one untagged E record
// per event some query took, however many did, with an R record for
// every other subscriber (refused or not local), so that replay
// re-routes it exactly as the pass did.
func (g *Registry) OfferPlaced(events []*event.Event, place Place) OfferResult {
	res := OfferResult{Events: len(events)}
	f := g.getFan()
	g.offerMu.Lock()
	now, rt := time.Now(), g.route.Load()
	for _, in := range rt.insts {
		f.add(in)
	}
	b := &g.batch
	for _, e := range events {
		refs := rt.byType[e.Type]
		if len(refs) == 0 {
			res.Unrouted++
			continue
		}
		f.byKey = f.byKey[:0]
		took := false
		for _, ref := range refs {
			byKey := false
			if place == nil || place(ref.inst, e) {
				f.local(e)
				byKey = f.shares[ref.idx].admit(e, -1, now)
			}
			took = took || byKey
			f.byKey = append(f.byKey, byKey)
		}
		if took && g.log != nil {
			b.Events = append(b.Events, e)
			for i, ref := range refs {
				if !f.byKey[i] {
					b.Refused = append(b.Refused, checkpoint.Refusal{FP: ref.inst.fp, Seq: e.Seq})
				}
			}
		}
	}
	g.disp.Add(shed.Unrouted, res.Unrouted)
	return g.finish(f, res)
}

// finish ends an offer that holds offerMu: it appends the offer's log
// records, pushes every share's pairs onto their queues and advances the
// log's routed watermark, then releases offerMu and waits for room. A
// failed append is logged here; the shards' next flush of the same log
// fails too and disables their durability loudly (runtime walFailed).
func (g *Registry) finish(f *fan, res OfferResult) OfferResult {
	if g.log != nil {
		if err := g.log.AppendBatch(&g.batch); err != nil {
			g.logf("registry: input log append: %v", err)
		}
		g.batch.Reset()
	}
	for i := range f.shares {
		if sh := &f.shares[i]; len(sh.events) > 0 {
			sh.in.rt.Claim(&sh.claim, sh.events, sh.slots)
		}
	}
	if f.routed && g.log != nil {
		g.log.MarkRouted(f.top)
	}
	g.offerMu.Unlock()
	for i := range f.shares {
		res.Add(f.shares[i].settle())
	}
	g.putFan(f)
	return res
}

// Offer routes a single event (the paced replay's path). It returns
// false only when at least one subscribed query door-rejected the
// event and none accepted it — the signal a NACKing protocol wants.
func (g *Registry) Offer(e *event.Event) bool {
	res := g.OfferBatch([]*event.Event{e})
	return res.DoorRejected == 0 || res.Deliveries > 0
}

// Quarantine records an input rejected before routing (undecodable
// line) in the registry's edge dead-letter ring, persisted when durable.
func (g *Registry) Quarantine(reason, payload string) {
	g.edgeMu.Lock()
	defer g.edgeMu.Unlock()
	g.edge.Add(runtime.DeadLetter{Shard: -1, Reason: reason, Payload: runtime.ClipPayload(payload)})
	if g.durable {
		if err := checkpoint.SaveDeadLetters(g.cfg.StateDir, edgeDLQOwner, g.edge.State(), g.dur.Fsync); err != nil {
			g.logf("registry: edge dead-letter checkpoint failed: %v", err)
		}
	}
}

// DeadLetters merges the registry-edge letters with every query's
// retained letters, each annotated with its owner.
func (g *Registry) DeadLetters() []DeadLetter {
	var out []DeadLetter
	for _, dl := range g.edge.Letters() {
		out = append(out, DeadLetter{DeadLetter: dl})
	}
	for _, in := range g.instances() {
		for _, dl := range in.rt.DeadLetters() {
			out = append(out, DeadLetter{
				Tenant:     in.spec.Tenant,
				Query:      in.spec.Name,
				DeadLetter: dl,
			})
		}
	}
	return out
}

// WaitRecovered blocks until every currently registered query is
// active (recovered and routed, or removed).
func (g *Registry) WaitRecovered() {
	for _, in := range g.instances() {
		<-in.readyCh
	}
}

// RecoveryInfo aggregates per-query recovery across the registry.
type RecoveryInfo struct {
	// Restored counts queries that recovered a sequence floor.
	Restored int `json:"restored_queries"`
	// MaxSeq/MaxTime are the highest restored input sequence/time over
	// all queries; a shared-stream producer resumes above MaxSeq.
	// MinFloorSeq is the LOWEST floor over restored queries: replaying
	// the shared stream from above MinFloorSeq reaches every query's gap
	// (per-query floors drop what an individual query already has).
	MaxSeq      uint64 `json:"max_seq"`
	MaxTime     int64  `json:"max_time"`
	MinFloorSeq uint64 `json:"min_floor_seq"`
	// WALReplayed/ColdStarts sum the per-query runtime counters.
	WALReplayed uint64 `json:"wal_replayed"`
	ColdStarts  uint64 `json:"cold_starts"`
}

// RecoveryInfo reports the aggregate floor; meaningful after
// WaitRecovered.
func (g *Registry) RecoveryInfo() RecoveryInfo {
	var info RecoveryInfo
	first := true
	for _, in := range g.instances() {
		ri := in.rt.RecoveryInfo()
		info.WALReplayed += ri.WALReplayed
		info.ColdStarts += ri.ColdStarts
		if !ri.Restored {
			// A query with nothing restored needs the stream from the
			// beginning.
			info.MinFloorSeq = 0
			first = false
			continue
		}
		info.Restored++
		if ri.MaxSeq > info.MaxSeq {
			info.MaxSeq = ri.MaxSeq
		}
		if ri.MaxTime > info.MaxTime {
			info.MaxTime = ri.MaxTime
		}
		if first || ri.MaxSeq+1 < info.MinFloorSeq {
			info.MinFloorSeq = ri.MaxSeq + 1
		}
		first = false
	}
	return info
}

// InstanceStatus is the per-query slice of a registry snapshot.
type InstanceStatus struct {
	Spec        QuerySpec `json:"spec"`
	Fingerprint string    `json:"fingerprint"`
	Ready       bool      `json:"ready"`
	Types       []string  `json:"types"`
	// Excess is the x the query's shards apply — their strategies run
	// against θ·(1−x) — the larger of the arbiter's and the ladder's.
	Excess     float64          `json:"excess" prom:"cepshed_excess,gauge,Excess fraction x the query's shards apply: their strategies run against theta*(1-x)."`
	FloorSkips uint64           `json:"floor_skips" prom:"cepshed_floor_skips_total,counter,Events below a recovered query's sequence floor, dropped for exactly-once replay."`
	Runtime    runtime.Snapshot `json:"runtime"`
}

// Snapshot is the registry-wide point-in-time state.
type Snapshot struct {
	Queries []InstanceStatus `json:"queries"`
	Tenants []Tenant         `json:"tenants"`
	Arbiter ArbiterSnapshot  `json:"arbiter"`

	// Totals aggregated across queries (same fields as the runtime's).
	EventsIn          uint64 `json:"events_in" prom:"cepshed_latency_seconds_count"`
	EventsShed        uint64 `json:"events_shed"`
	EventsProcessed   uint64 `json:"events_processed"`
	Matches           uint64 `json:"matches"`
	LivePMs           int64  `json:"live_partial_matches"`
	Snapshots         uint64 `json:"snapshots"`
	WALReplayed       uint64 `json:"wal_replayed"`
	ColdStarts        uint64 `json:"cold_starts"`
	Restarts          uint64 `json:"restarts"`
	Quarantined       uint64 `json:"quarantined" prom:"cepshed_quarantined_total,counter,Dead letters recorded (shard panics plus rejected inputs)."`
	AdmissionRejected uint64 `json:"admission_rejected" prom:"cepshed_admission_rejected_total,counter,Offers rejected at the door by a degradation ladder."`
	FailedShards      int    `json:"failed_shards" prom:"cepshed_failed_shards,gauge,Shards marked permanently failed by the circuit breaker."`
	WALErrors         uint64 `json:"wal_errors" prom:"cepshed_wal_errors_total"`
	Recovering        bool   `json:"recovering" prom:"cepshed_recovering,gauge,1 while any shard of any query is restoring a snapshot or replaying its WAL."`

	// MaxDegradation/MinDegradation are the worst and best ladder level
	// across active queries: Max drives "degraded" health, Min drives
	// whole-server load rejection (429 only when EVERY query refuses).
	MaxDegradation int `json:"max_degradation" prom:"cepshed_degradation_level,gauge,Graceful-degradation ladder level (0 normal .. 3 load rejection); unlabeled: worst across queries."`
	MinDegradation int `json:"min_degradation"`

	// Unrouted counts events no query subscribed to. It and
	// AdmissionRejected above read the registry's disposition ledger, so
	// unlike the other totals they keep what a since-removed query
	// contributed. EdgeQuarantined counts pre-routing quarantines (also
	// included in Quarantined). ImposedDrops is always 0: nothing drops
	// pairs at the registry any more (the arbiter tightens bounds
	// instead); the field stays for readers that still decode it.
	ImposedDrops    uint64 `json:"imposed_drops"`
	Unrouted        uint64 `json:"unrouted" prom:"cepshed_unrouted_total,counter,Ingested events no registered query subscribes to."`
	EdgeQuarantined uint64 `json:"edge_quarantined"`

	// Registry-wide figures only /metrics reads: the registered query
	// count, the age of the stalest shard snapshot, and the realized ρI
	// and ρS across all queries.
	QueryCount     int           `json:"-" prom:"cepshed_queries,gauge,Registered queries."`
	SnapshotAge    time.Duration `json:"-" prom:"cepshed_snapshot_age_seconds,gauge,Age of the stalest checkpoint among the shards that have taken one (0 while none has)."`
	InputShedRatio float64       `json:"-" prom:"cepshed_input_shed_ratio,gauge,Realized rho_I across all queries."`
	PMShedRatio    float64       `json:"-" prom:"cepshed_pm_shed_ratio,gauge,Realized rho_S across all queries."`
}

// Snapshot captures per-query snapshots plus registry aggregates. Safe
// from any goroutine; cost is proportional to total shard count.
func (g *Registry) Snapshot() Snapshot {
	var s Snapshot
	s.Tenants = g.Tenants()
	s.Arbiter = g.arb.snapshot()
	first := true
	var created, dropped uint64
	var oldest int64
	for _, in := range g.instances() {
		rs := in.rt.Snapshot()
		d := in.disp.Counts()
		st := InstanceStatus{
			Spec:        in.spec,
			Fingerprint: fmt.Sprintf("%016x", in.fp),
			Ready:       in.ready.Load(),
			Types:       in.types,
			Excess:      in.rt.Excess(),
			FloorSkips:  d[shed.FloorSkipped],
			Runtime:     rs,
		}
		s.Queries = append(s.Queries, st)
		s.EventsIn += rs.EventsIn
		s.EventsShed += rs.EventsShed
		s.EventsProcessed += rs.EventsProcessed
		s.Matches += rs.Matches
		s.LivePMs += rs.LivePMs
		s.Snapshots += rs.Snapshots
		s.WALReplayed += rs.WALReplayed
		s.ColdStarts += rs.ColdStarts
		s.Restarts += rs.Restarts
		s.Quarantined += rs.Quarantined
		s.FailedShards += rs.FailedShards
		s.WALErrors += rs.WALErrors
		s.Recovering = s.Recovering || rs.Recovering
		created += rs.CreatedPMs
		dropped += rs.DroppedPMs
		if ns := rs.OldestSnapshotUnixNs; ns > 0 && (oldest == 0 || ns < oldest) {
			oldest = ns
		}
		if in.ready.Load() && !in.spec.Paused {
			lvl := rs.DegradationLevel
			if first || lvl > s.MaxDegradation {
				s.MaxDegradation = lvl
			}
			if first || lvl < s.MinDegradation {
				s.MinDegradation = lvl
			}
			first = false
		}
	}
	s.EdgeQuarantined = g.edge.Total()
	s.Quarantined += s.EdgeQuarantined
	d := g.disp.Counts()
	s.AdmissionRejected, s.Unrouted = d[shed.Rejected], d[shed.Unrouted]
	s.QueryCount = len(s.Queries)
	if oldest > 0 {
		s.SnapshotAge = time.Since(time.Unix(0, oldest))
	}
	if s.EventsIn > 0 {
		s.InputShedRatio = float64(s.EventsShed) / float64(s.EventsIn)
	}
	if created > 0 {
		s.PMShedRatio = float64(dropped) / float64(created)
	}
	return s
}

// Dispositions reads the registry-wide door-tier ledger: the sum of
// every query's, removed queries included, plus Unrouted.
func (g *Registry) Dispositions() shed.Counts { return g.disp.Counts() }

// Close stops the arbiter and drains every query gracefully (final
// snapshots included when durable). Idempotent.
func (g *Registry) Close() {
	g.shutdown(func(in *Instance) { in.rt.Close() })
	if g.log != nil {
		if err := g.log.Close(); err != nil {
			g.logf("registry: input log close: %v", err)
		}
	}
}

// Kill simulates a whole-process crash for tests: every query's
// runtime is killed (no final snapshots) and the input log aborted
// (buffered records abandoned), leaving exactly the on-disk state a
// SIGKILL would.
func (g *Registry) Kill() {
	g.shutdown(func(in *Instance) { in.rt.Kill() })
	if g.log != nil {
		g.log.Abort()
	}
}

func (g *Registry) shutdown(stop func(*Instance)) {
	g.offerMu.Lock()
	defer g.offerMu.Unlock()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	insts := make([]*Instance, 0, len(g.insts))
	for _, in := range g.insts {
		insts = append(insts, in)
	}
	g.route.Store(&routeTable{byType: map[string][]routeRef{}})
	g.mu.Unlock()
	g.arb.stopLoop()
	var wg sync.WaitGroup
	for _, in := range insts {
		wg.Add(1)
		go func(in *Instance) {
			defer wg.Done()
			stop(in)
		}(in)
	}
	wg.Wait()
	g.pool.Stop()
}
