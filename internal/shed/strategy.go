// Package shed defines the load-shedding strategy interface shared by the
// hybrid approach (internal/core) and the baseline strategies
// (internal/baseline), plus the small controllers they have in common.
//
// A strategy plugs into the processing loop at two points, mirroring the
// paper's two shedding functions (§III-C): AdmitEvent is ρI, deciding per
// input event whether to process it at all, and Control runs after each
// processed event with the current smoothed latency, where ρS may remove
// partial matches through the engine.
package shed

import (
	"cepshed/internal/engine"
	"cepshed/internal/event"
	"cepshed/internal/vclock"
)

// Strategy is a load-shedding policy.
type Strategy interface {
	// Name identifies the strategy in experiment output (RI, SI, RS, SS,
	// Hybrid, HyI, HyS, None).
	Name() string
	// Attach installs the strategy's hooks on the engine (e.g. OnCreate
	// classification). Called once before processing starts.
	Attach(en *engine.Engine)
	// AdmitEvent is the input-based shedding function ρI: returning false
	// discards the event unprocessed.
	AdmitEvent(e *event.Event, now event.Time) bool
	// Observe lets the strategy see the result of a processed event
	// (for online adaptation of cost estimates).
	Observe(res *engine.Result, now event.Time)
	// Control runs after each event with the current smoothed latency
	// μ(k); state-based shedding (ρS) happens here. It returns the
	// virtual work spent on shedding decisions.
	Control(now event.Time, lat event.Time) vclock.Cost
}

// DurableStrategy is implemented by strategies whose learned state is
// worth carrying across a restart (internal/checkpoint stores the blob
// inside shard snapshots). MarshalState renders the state opaquely;
// UnmarshalState applies a previously marshalled blob, returning an
// error — not panicking — when the blob is incompatible, in which case
// the caller keeps the freshly initialised state.
type DurableStrategy interface {
	Strategy
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
}

// PlanStats are the shed-decision-path counters a strategy can expose:
// how shedding plans are being produced (planner goroutine or in-line)
// and how much the decision path pauses the worker. Counters are
// cumulative; *Ns fields are gauges in nanoseconds.
type PlanStats struct {
	// PlansBuilt / PlansApplied / PlansStale count planner products:
	// built by the planner goroutine, applied by the worker, and
	// discarded because the partial-match population they were built for
	// had been retired (drop-epoch fence). All zero when planning is
	// synchronous.
	PlansBuilt   uint64
	PlansApplied uint64
	PlansStale   uint64
	// BuildNsLast / BuildNsMax time the planner's selection + table
	// compilation off the hot path.
	BuildNsLast int64
	BuildNsMax  int64
	// StallNsMax is the worst worker-side pause a shedding trigger
	// caused (the whole select+drop+compile for a synchronous trigger;
	// only snapshot/launch/apply for an async one).
	StallNsMax int64
	// AdaptFolds counts online-adaptation epochs folded into the cost
	// model (§V-B); its rate is the epoch rate, window/Slices of event
	// time. Zero for strategies that do not adapt.
	AdaptFolds uint64
}

// PlanReporter is implemented by strategies that report shed-planner
// counters. PlanStats must be safe to call from any goroutine — the
// runtime reads it from stats/metrics threads while the worker runs.
type PlanReporter interface {
	PlanStats() PlanStats
}

// None is the no-shedding strategy used for ground-truth runs.
type None struct{}

// Name returns "None".
func (None) Name() string { return "None" }

// Attach is a no-op.
func (None) Attach(*engine.Engine) {}

// AdmitEvent admits everything.
func (None) AdmitEvent(*event.Event, event.Time) bool { return true }

// Observe is a no-op.
func (None) Observe(*engine.Result, event.Time) {}

// Control sheds nothing.
func (None) Control(event.Time, event.Time) vclock.Cost { return 0 }

var _ Strategy = None{}
