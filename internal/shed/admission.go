package shed

import "sync/atomic"

// AdmissionController is the cluster router's degraded-mode gate:
// probabilistic rejection before a pair costs a queue slot. Where
// DropController reacts to the latency bound θ, AdmissionController
// reacts to aggregate queue *fill* — the fraction of total queue
// capacity in use — and rejects offers with the probability FillRamp
// gives between the high-water and the full-water mark. MaxDrop < 1
// keeps a trickle of admissions flowing for the signals to recover on.
//
// AdmissionController is safe for concurrent use: Admit runs on every
// producer goroutine.
type AdmissionController struct {
	// High is the queue-fill fraction where rejection starts.
	High float64
	// Full is the fill fraction where rejection probability reaches
	// MaxDrop.
	Full float64
	// MaxDrop caps the rejection probability at Full.
	MaxDrop float64

	coin coin
}

// NewAdmissionController returns a controller ramping rejection between
// the high and full fill marks, with the standard 0.9 probability cap.
func NewAdmissionController(high, full float64) *AdmissionController {
	if full <= high {
		full = high + 0.1
	}
	return &AdmissionController{High: high, Full: full, MaxDrop: 0.9}
}

// Admit decides one offer given the current aggregate queue fill in
// [0,1]. It returns false with probability proportional to how far fill
// has penetrated the (High, Full) band.
func (a *AdmissionController) Admit(fill float64) bool {
	p := a.DropProbability(fill)
	return p <= 0 || a.coin.rand01() >= p
}

// DropProbability returns the rejection probability for a given fill.
func (a *AdmissionController) DropProbability(fill float64) float64 {
	return FillRamp(fill, a.High, a.Full, a.MaxDrop)
}

// FillRamp maps a queue fill to a fraction in [0, peak]: 0 up to the
// high mark, rising linearly to peak at the full mark, peak beyond. The
// router gate turns it into a rejection probability; the runtime's
// degradation ladder turns it into the excess fraction x by which every
// shard tightens its latency bound.
func FillRamp(fill, high, full, peak float64) float64 {
	if fill <= high {
		return 0
	}
	return min((fill-high)/(full-high)*peak, peak)
}

// coin draws uniform [0,1) numbers from a splitmix64 stream over an
// atomic counter: lock free, and statistically far better than a drop
// coin needs. The zero value is ready to use.
type coin struct{ n atomic.Uint64 }

func (c *coin) rand01() float64 {
	x := c.n.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
