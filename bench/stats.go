package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile
// for it to mean anything: p99 needs 1000 samples, p95 200.
const tailSamples = 10

// supports reports whether n samples can carry percentile p.
func supports(n int, p float64) bool {
	return float64(n)*(1-p/100) >= tailSamples
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile[T float64 | time.Duration](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sortedCopy[T float64 | time.Duration](v []T) []T {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// (the default "exclusive" method) computes them; the driver judges
// run-to-run spread with exactly that.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // cut point i of 4
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortKeys returns a map's keys in order.
func sortKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
