package registry

import (
	goruntime "runtime"
	"sort"
	"sync"
	"time"

	"cepshed/internal/runtime"
)

// The cross-query shedding arbiter. Each query's own degradation
// ladder and ρI/ρS strategies keep that query inside its latency bound
// — but they are blind to neighbors: a pathological Kleene query that
// saturates the process drives every co-located query's queues up, and
// each victim then sheds ITS OWN input to survive load it did not
// cause. The arbiter closes that gap with a global control loop:
//
//  1. Measure. Every tick it polls each query's runtime.LoadStats and
//     turns the busy-time delta into a utilization (CPU-seconds per
//     wall-second this query actually cost), EWMA-smoothed. Unlike the
//     latency EWMA — which includes queue wait and explodes under
//     overload — busy time is a true unit cost.
//
//  2. Entitle. When total utilization exceeds the capacity target, a
//     priority-weighted water-filling pass computes each tenant's fair
//     share: capacity is divided in proportion to tenant priority, and
//     slack from tenants using less than their entitlement is
//     redistributed to the rest. Tenants at or under their share are
//     never touched — that is the isolation guarantee: the overloading
//     tenant degrades itself, not its neighbors.
//
//  3. Tighten. Every query of an over-share tenant gets the excess
//     fraction x = min(excess/utilization, ShedBudget, 0.95), and its
//     shards run their strategies against θ·(1−x) (runtime.SetExcess).
//     What to shed is then chosen where the paper chooses it: Hybrid's
//     knapsack over cost-model classes, or each baseline's own rule. A
//     query's x decays geometrically once its tenant is back under its
//     share, instead of snapping off, so the system does not oscillate
//     at the capacity boundary.
type ArbiterConfig struct {
	// Interval is the control period (default 250ms).
	Interval time.Duration
	// Capacity is the utilization target in CPU-seconds per second
	// (default 0.8 × GOMAXPROCS). Total measured busy time above this
	// triggers arbitration; the 20% headroom leaves room for the
	// decoder, the supervisors, and the GC.
	Capacity float64
	// Disabled turns the arbiter off: per-query ladders still run,
	// cross-query isolation does not.
	Disabled bool
}

func (c ArbiterConfig) withDefaults() ArbiterConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 0.8 * float64(goruntime.GOMAXPROCS(0))
	}
	return c
}

const (
	// utilSmooth is the EWMA weight of a new utilization sample. It is
	// not the paper's latency smoothing (a sliding mean, DESIGN.md §3.2);
	// 0.5 is the weight the paper uses for cost-model adaptation (§V-B).
	utilSmooth = 0.5
	// excessDecay halves an untouched query's x each tick; excessFloor
	// clears it once negligible.
	excessDecay = 0.5
	excessFloor = 0.02
)

// arbScratch is per-instance state owned exclusively by the arbiter
// goroutine between ticks.
type arbScratch struct {
	lastBusyNs int64
	util       float64 // EWMA-smoothed utilization
	seeded     bool
	x          float64 // the excess fraction last set on the runtime
}

// TenantLoad is one tenant's slice of an arbiter snapshot.
type TenantLoad struct {
	Tenant string `json:"tenant" prom:"tenant,label"`
	// Utilization is the tenant's smoothed CPU-seconds/second;
	// Share its current fair-share entitlement.
	Utilization float64 `json:"utilization" prom:"cepshed_tenant_utilization,gauge,Smoothed CPU-seconds/second the tenant's queries cost."`
	Share       float64 `json:"share" prom:"cepshed_tenant_share,gauge,The tenant's current fair-share entitlement."`
	// Excess is the largest x the arbiter currently sets on any of the
	// tenant's queries (0: untouched).
	Excess float64 `json:"excess" prom:"cepshed_tenant_excess,gauge,Largest excess fraction x the arbiter sets on the tenant's queries (0: untouched)."`
	// BudgetCapped reports that fairness asked for a larger x than the
	// tenant's ShedBudget allows — the tenant is trading latency for
	// fidelity.
	BudgetCapped bool `json:"budget_capped,omitempty"`
}

// ArbiterSnapshot is the arbiter's observable state for /stats.
type ArbiterSnapshot struct {
	Enabled     bool         `json:"enabled"`
	Capacity    float64      `json:"capacity" prom:"cepshed_arbiter_capacity,gauge,The arbiter's utilization target."`
	Utilization float64      `json:"utilization" prom:"cepshed_arbiter_utilization,gauge,Total measured utilization across all queries."`
	Overloaded  bool         `json:"overloaded" prom:"cepshed_arbiter_overloaded,gauge,1 while total utilization exceeds the capacity target."`
	Ticks       uint64       `json:"ticks"`
	Tenants     []TenantLoad `json:"tenants,omitempty"`
}

type arbiter struct {
	g   *Registry
	cfg ArbiterConfig

	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	snap ArbiterSnapshot
}

func newArbiter(g *Registry, cfg ArbiterConfig) *arbiter {
	a := &arbiter{
		g:    g,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	a.snap.Enabled = !a.cfg.Disabled
	a.snap.Capacity = a.cfg.Capacity
	if a.cfg.Disabled {
		close(a.done)
		return a
	}
	go a.loop()
	return a
}

func (a *arbiter) stopLoop() {
	if a.cfg.Disabled {
		return
	}
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

func (a *arbiter) snapshot() ArbiterSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.snap
	s.Tenants = append([]TenantLoad(nil), a.snap.Tenants...)
	return s
}

func (a *arbiter) loop() {
	defer close(a.done)
	tick := time.NewTicker(a.cfg.Interval)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-a.stop:
			return
		case now := <-tick.C:
			wall := now.Sub(last)
			last = now
			if wall > 0 {
				a.tick(wall)
			}
		}
	}
}

// tick runs one control period; wall is the elapsed time since the
// previous tick.
func (a *arbiter) tick(wall time.Duration) {
	insts := a.g.instances()
	tenants := map[string]*TenantLoad{}
	specs := map[string]Tenant{}
	byTenant := map[string][]*Instance{}
	var total float64
	for _, in := range insts {
		if !in.ready.Load() {
			continue
		}
		st := in.rt.LoadStats()
		sc := &in.arb
		busyDelta := st.BusyNs - sc.lastBusyNs
		sc.lastBusyNs = st.BusyNs
		sample := float64(busyDelta) / float64(wall.Nanoseconds())
		if sample < 0 {
			sample = 0
		}
		if !sc.seeded {
			sc.util = sample
			sc.seeded = true
		} else {
			sc.util = utilSmooth*sample + (1-utilSmooth)*sc.util
		}
		total += sc.util
		t := in.spec.Tenant
		if _, ok := tenants[t]; !ok {
			tenants[t] = &TenantLoad{Tenant: t}
			specs[t] = a.g.tenant(t)
		}
		tenants[t].Utilization += sc.util
		byTenant[t] = append(byTenant[t], in)
	}

	overloaded := total > a.cfg.Capacity && len(tenants) > 0
	if overloaded {
		a.entitle(tenants, specs)
	}
	for name, tl := range tenants {
		tighten(byTenant[name], tl, specs[name], overloaded)
	}

	loads := make([]TenantLoad, 0, len(tenants))
	for _, tl := range tenants {
		loads = append(loads, *tl)
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Tenant < loads[j].Tenant })
	a.mu.Lock()
	a.snap.Utilization = total
	a.snap.Overloaded = overloaded
	a.snap.Ticks++
	a.snap.Tenants = loads
	a.mu.Unlock()
}

// entitle computes priority-weighted fair shares by water-filling:
// every tenant is entitled to capacity × (priority / Σ priorities);
// tenants demanding less than their entitlement keep their demand, and
// their slack is redistributed among the still-unsatisfied tenants
// until shares stabilize. Work-conserving: Σ shares = min(capacity,
// Σ demands).
func (a *arbiter) entitle(tenants map[string]*TenantLoad, specs map[string]Tenant) {
	remaining := a.cfg.Capacity
	unsat := make([]string, 0, len(tenants))
	for name := range tenants {
		unsat = append(unsat, name)
	}
	sort.Strings(unsat) // deterministic iteration
	for len(unsat) > 0 {
		var prioSum float64
		for _, name := range unsat {
			prioSum += specs[name].Priority
		}
		if prioSum <= 0 {
			break
		}
		satisfied := false
		next := unsat[:0]
		for _, name := range unsat {
			ent := remaining * specs[name].Priority / prioSum
			if tenants[name].Utilization <= ent+1e-12 {
				// Under entitlement: give the tenant its demand, free the
				// rest for redistribution.
				tenants[name].Share = tenants[name].Utilization
				remaining -= tenants[name].Utilization
				satisfied = true
			} else {
				next = append(next, name)
			}
		}
		unsat = next
		if !satisfied {
			// No one newly satisfied: split what's left by priority.
			for _, name := range unsat {
				tenants[name].Share = remaining * specs[name].Priority / prioSum
			}
			break
		}
	}
}

// tighten sets the excess fraction x of every query of one tenant:
// x = min(excess/utilization, ShedBudget, runtime.MaxExcess) when the
// tenant is over its share, otherwise each query's previous x decayed.
func tighten(insts []*Instance, tl *TenantLoad, spec Tenant, overloaded bool) {
	x := 0.0
	if excess := tl.Utilization - tl.Share; overloaded && excess > 1e-9 {
		x = min(excess/tl.Utilization, runtime.MaxExcess)
		if x > spec.ShedBudget {
			x = spec.ShedBudget
			tl.BudgetCapped = true
		}
	}
	for _, in := range insts {
		sc := &in.arb
		next := x
		if next == 0 {
			// At or under entitlement: isolation means this query's x
			// only ever decays.
			if next = sc.x * excessDecay; next < excessFloor {
				next = 0
			}
		}
		if next != sc.x {
			sc.x = next
			in.rt.SetExcess(next)
		}
		tl.Excess = max(tl.Excess, next)
	}
}
