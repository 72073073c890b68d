package metrics

import (
	"math/bits"
	"sync/atomic"

	"cepshed/internal/event"
)

// Histogram buckets: each power-of-two octave of the nanosecond range is
// split into 2^histSubBits sub-buckets, giving a relative quantile error
// bounded by 1/2^histSubBits (~12.5%) across the full int64 range. The
// layout matches HDR-style histograms but with fixed memory and no
// resizing, so recording is a single atomic increment.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// Histogram is a streaming latency histogram safe for concurrent use: any
// number of goroutines may Record while others read quantiles. It covers
// the full non-negative int64 nanosecond range with bounded relative
// error and constant memory; the zero value is NOT ready — use
// NewHistogram.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= histSubBits
	sub := int((uint64(v) >> (exp - histSubBits)) & (histSub - 1))
	return (exp-histSubBits)*histSub + sub + histSub
	// The first histSub buckets hold exact values 0..histSub-1; above
	// that, bucket (e,s) covers [2^e·(1+s/8), 2^e·(1+(s+1)/8)).
}

// histLower returns the inclusive lower bound of a bucket.
func histLower(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	idx -= histSub
	exp := idx/histSub + histSubBits
	sub := idx % histSub
	return (int64(1)<<exp + int64(sub)<<(exp-histSubBits))
}

// Record adds one sample (negative samples clamp to zero).
func (h *Histogram) Record(v event.Time) {
	x := int64(v)
	if x < 0 {
		x = 0
	}
	h.counts[histBucket(x)].Add(1)
	h.n.Add(1)
	h.sum.Add(x)
	h.raiseMax(x)
}

// raiseMax lifts the recorded maximum to x if x is larger.
func (h *Histogram) raiseMax(x int64) {
	for {
		m := h.max.Load()
		if x <= m || h.max.CompareAndSwap(m, x) {
			return
		}
	}
}

// Merge adds o's samples to h, as if each had been recorded into h as
// well: quantiles, mean and max of h then describe the union. Samples o
// records during the merge may land in some counters and not others,
// the same momentary view Quantile gives.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Mean returns the average sample.
func (h *Histogram) Mean() event.Time {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return event.Time(h.sum.Load() / int64(n))
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() event.Time { return event.Time(h.max.Load()) }

// Quantile returns the q-th quantile (q in [0,1]) as the lower bound of
// the bucket holding that rank; concurrent Records yield a momentary
// snapshot, not a torn read of any single bucket.
func (h *Histogram) Quantile(q float64) event.Time {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			return event.Time(histLower(i))
		}
	}
	return h.Max()
}
