package shed

import "sync/atomic"

// Disposition is where one (event, query) pair ended. Every pair the
// ingest edge creates ends in exactly one; docs/ROBUSTNESS.md has the
// chain that decides it and the table of who counts it.
type Disposition uint8

const (
	// Door tier: decided before the pair costs a queue slot and counted
	// in a Ledger, each at one site.

	// Delivered: accepted into a shard queue.
	Delivered Disposition = iota
	// Rejected: refused at the runtime's door — degradation ladder
	// level 3, a failed target shard, or a runtime already closing.
	Rejected
	// FloorSkipped: below a recovered query's sequence floor, so already
	// inside its restored state.
	FloorSkipped
	// Unrouted: no active query subscribes to the event's type. Counts
	// events — such an event never became a pair.
	Unrouted

	// Engine tier: what became of the delivered pairs. Never added to a
	// Ledger; read from the runtime's per-shard counters. Once drained,
	// Delivered == Processed + ShedInput + Quarantined.

	// Processed: reached the engine.
	Processed
	// ShedInput: dropped by the strategy's ρI.
	ShedInput
	// ShedState: partial matches (not pairs) dropped by the strategy's ρS.
	ShedState
	// Quarantined: poisoned a shard worker, or reached a frozen or dead
	// shard; recorded in the dead-letter queue.
	Quarantined

	NumDispositions
)

// Counts is one reading of every disposition.
type Counts [NumDispositions]uint64

// Ledger counts door-tier dispositions. An Add also lands in every
// ledger up the chain, which is how a registry-wide ledger outlives the
// per-query ones feeding it. The zero value is a ledger with no parent.
type Ledger struct {
	n  [NumDispositions]atomic.Uint64
	up *Ledger
}

// NewLedger returns an empty ledger feeding up (nil: none).
func NewLedger(up *Ledger) *Ledger { return &Ledger{up: up} }

// Add records n pairs ending in d; n = 0 touches nothing.
func (l *Ledger) Add(d Disposition, n int) {
	for ; n != 0 && l != nil; l = l.up {
		l.n[d].Add(uint64(n))
	}
}

// Counts reads the ledger.
func (l *Ledger) Counts() Counts {
	var c Counts
	for d := range c {
		c[d] = l.n[d].Load()
	}
	return c
}
