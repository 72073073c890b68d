package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cepshed/internal/event"
)

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 8; v++ {
		h.Record(event.Time(v))
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 7 {
		t.Errorf("q1 = %d, want 7", got)
	}
	if got := h.Max(); got != 7 {
		t.Errorf("max = %d, want 7", got)
	}
}

func TestHistogramQuantileError(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the shape latency tails take.
		v := int64(1) << uint(rng.Intn(40))
		v += rng.Int63n(v)
		samples = append(samples, v)
		h.Record(event.Time(v))
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := float64(h.Quantile(q))
		want := float64(sorted[int(q*float64(len(sorted)))])
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("q%.2f = %.0f, want within 15%% of %.0f", q, got, want)
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("quantile of negative sample = %d, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				h.Record(event.Time(rng.Int63n(1 << 30)))
				_ = h.Quantile(0.99)
				_ = h.Mean()
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 8*5000 {
		t.Fatalf("count = %d, want %d", h.Count(), 8*5000)
	}
}

// Merging per-part histograms reads exactly like one histogram fed the
// union: a runtime's latency quantiles are its shards' merged on read.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	union := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 30000; i++ {
		v := event.Time(int64(1) << uint(rng.Intn(36)))
		v += event.Time(rng.Int63n(int64(v)))
		union.Record(v)
		parts[rng.Intn(len(parts)-1)].Record(v) // the last part stays empty
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != union.Count() || merged.Mean() != union.Mean() || merged.Max() != union.Max() {
		t.Fatalf("merged count/mean/max = %d/%d/%d, union %d/%d/%d",
			merged.Count(), merged.Mean(), merged.Max(), union.Count(), union.Mean(), union.Max())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if got, want := merged.Quantile(q), union.Quantile(q); got != want {
			t.Errorf("q%.3f: merged %d, union %d", q, got, want)
		}
	}
}
