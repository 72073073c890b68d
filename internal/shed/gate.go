package shed

import "sync/atomic"

// DropGate is a lock-free per-class drop gate: a controller publishes
// an immutable class → drop-probability table with Set, and the data
// path consults it with one atomic pointer load per event. It is the
// imposition mechanism of the cross-query arbiter — per-(query, event
// type) fractional drops — but carries no policy itself. The zero
// value admits everything at the cost of a single nil check.
type DropGate struct {
	probs atomic.Pointer[map[string]float64]
	coin  coin
}

// coin draws uniform [0,1) numbers from a splitmix64 stream over an
// atomic counter: lock free, and statistically far better than a drop
// coin needs. Every probabilistic link of the admission chain flips
// one. The zero value is ready to use.
type coin struct{ n atomic.Uint64 }

// Set publishes a new table; nil or empty clears the gate back to the
// admit-everything fast path. The map must not be mutated after Set.
func (g *DropGate) Set(probs map[string]float64) {
	if len(probs) == 0 {
		g.probs.Store(nil)
		return
	}
	g.probs.Store(&probs)
}

// Probs returns the current table — shared and read-only — or nil when
// the gate is clear.
func (g *DropGate) Probs() map[string]float64 {
	if p := g.probs.Load(); p != nil {
		return *p
	}
	return nil
}

// ShouldDrop flips the gate's coin for one event of the class. Safe
// for concurrent callers; classes absent from the table never drop.
func (g *DropGate) ShouldDrop(class string) bool {
	p := g.probs.Load()
	if p == nil {
		return false
	}
	pr := (*p)[class]
	if pr <= 0 {
		return false
	}
	if pr >= 1 {
		return true
	}
	return g.coin.rand01() < pr
}

func (c *coin) rand01() float64 {
	x := c.n.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
