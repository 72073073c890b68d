package core

import (
	"fmt"

	"cepshed/internal/checkpoint"
	"cepshed/internal/shed"
)

// This file implements shed.DurableStrategy for Hybrid: the online-
// adapted (contribution, consumption) estimates of every cost-model cell
// survive a restart, so a recovered shard sheds with the knowledge it
// had accumulated instead of reverting to the offline estimates.
//
// Deliberately NOT persisted:
//   - the adapter's counters for the epoch in flight: by choice, not
//     necessity — they are plain arrays now — because what is lost is at
//     most one adaptation epoch (window/Slices of event time) of
//     learning, which is not worth a blob-layout version.
//   - the classifier, regions, and class frequencies: training is
//     deterministic (seeded), so the restarted shard retrains the exact
//     same structure; only the adapted estimates differ from it.
//   - the current shedding set and input-filter flag: both are derived
//     from live latency within milliseconds of resuming load.

// persistVersion guards the blob layout; bump on incompatible change.
const persistVersion = 1

// MarshalState renders the model's per-cell estimates.
func (h *Hybrid) MarshalState() ([]byte, error) {
	m := h.model
	var e checkpoint.Encoder
	e.Uvarint(persistVersion)
	e.Uvarint(uint64(len(m.states)))
	e.Uvarint(uint64(m.cfg.Slices))
	for _, sm := range m.states {
		e.Uvarint(uint64(sm.k))
		for c := 0; c < sm.k; c++ {
			for sl := 0; sl < m.cfg.Slices; sl++ {
				e.F64(sm.contrib[c][sl])
				e.F64(sm.consume[c][sl])
			}
		}
	}
	return append([]byte(nil), e.Bytes()...), nil
}

// UnmarshalState applies a previously marshalled blob. Any shape
// mismatch — different state count, slice count, or per-state class
// count, i.e. a model trained differently — returns an error and leaves
// the freshly trained estimates in place.
func (h *Hybrid) UnmarshalState(blob []byte) error {
	m := h.model
	d := checkpoint.NewDecoder(blob)
	if v := d.Uvarint(); d.Err() == nil && v != persistVersion {
		return fmt.Errorf("core: strategy state version %d, want %d", v, persistVersion)
	}
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(m.states)) {
		return fmt.Errorf("core: strategy state has %d states, model has %d", n, len(m.states))
	}
	if s := d.Uvarint(); d.Err() == nil && s != uint64(m.cfg.Slices) {
		return fmt.Errorf("core: strategy state has %d slices, model has %d", s, m.cfg.Slices)
	}
	if d.Err() != nil {
		return d.Err()
	}
	// Decode fully before mutating, so a truncated blob cannot apply half
	// its cells.
	type cell struct {
		state, class, slice int
		contrib, consume    float64
	}
	var cells []cell
	for s, sm := range m.states {
		k := d.Uvarint()
		if d.Err() != nil {
			return d.Err()
		}
		if k != uint64(sm.k) {
			return fmt.Errorf("core: strategy state %d has %d classes, model has %d", s, k, sm.k)
		}
		for c := 0; c < sm.k; c++ {
			for sl := 0; sl < m.cfg.Slices; sl++ {
				cells = append(cells, cell{s, c, sl, d.F64(), d.F64()})
			}
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("core: %d trailing bytes in strategy state", d.Remaining())
	}
	for _, c := range cells {
		m.setEstimate(c.state, c.class, c.slice, c.contrib, c.consume)
	}
	return nil
}

var _ shed.DurableStrategy = (*Hybrid)(nil)
