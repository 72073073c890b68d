package shed

// AdmissionController is the degradation ladder's level-2 mechanism:
// probabilistic rejection at the door, upstream of the per-shard
// strategies. Where DropController reacts to the latency bound θ,
// AdmissionController reacts to aggregate queue *fill* — the fraction of
// total queue capacity in use — and rejects offers with a probability
// that ramps linearly from 0 at the high-water mark to MaxDrop at the
// full-water mark. Above full-water the ladder escalates to level 3 and
// rejects everything, so MaxDrop < 1 keeps a trickle of admissions
// flowing for the EWMA signal to recover on.
//
// AdmissionController is safe for concurrent use: Admit runs on every
// producer goroutine.
type AdmissionController struct {
	// High is the queue-fill fraction where rejection starts.
	High float64
	// Full is the fill fraction where rejection probability reaches
	// MaxDrop (and the ladder typically moves to outright rejection).
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
	if fill <= a.High {
		return 0
	}
	p := (fill - a.High) / (a.Full - a.High) * a.MaxDrop
	if p > a.MaxDrop {
		p = a.MaxDrop
	}
	return p
}
