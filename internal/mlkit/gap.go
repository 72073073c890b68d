package mlkit

import (
	"math"
	"math/rand"
)

// GapStatistic estimates the optimal number of clusters in 2-D points
// using the gap statistic of Tibshirani, Walther & Hastie (2001): compare
// the within-cluster dispersion against its expectation under B uniform
// reference datasets drawn from the bounding box, and pick the smallest k
// with Gap(k) >= Gap(k+1) - s(k+1). Returns a k in [1, maxK].
//
// All maxK·(1+refSets) k-means runs share one kernel's scratch and one
// reference buffer, and draw from rng in a fixed order.
func GapStatistic(points [][2]float64, maxK, refSets int, rng *rand.Rand) int {
	n := len(points)
	if n == 0 {
		return 1
	}
	if maxK < 1 {
		maxK = 1
	}
	if maxK > n {
		maxK = n
	}
	if refSets < 1 {
		refSets = 5
	}
	lo, hi := points[0], points[0]
	for _, p := range points {
		for d, v := range p {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	span := [2]float64{hi[0] - lo[0], hi[1] - lo[1]}

	var km kmeans
	ref := make([][2]float64, n)
	refLogs := make([]float64, refSets)
	gap := make([]float64, maxK+1)
	sk := make([]float64, maxK+1)
	for k := 1; k <= maxK; k++ {
		logW := logDispersion(km.fit(points, k, rng))
		for b := range refLogs {
			for i := range ref {
				ref[i][0] = lo[0] + rng.Float64()*span[0]
				ref[i][1] = lo[1] + rng.Float64()*span[1]
			}
			refLogs[b] = logDispersion(km.fit(ref, k, rng))
		}
		var mean float64
		for _, v := range refLogs {
			mean += v
		}
		mean /= float64(refSets)
		var sd float64
		for _, v := range refLogs {
			sd += (v - mean) * (v - mean)
		}
		sd = math.Sqrt(sd / float64(refSets))
		gap[k] = mean - logW
		sk[k] = sd * math.Sqrt(1+1/float64(refSets))
	}
	for k := 1; k < maxK; k++ {
		if gap[k] >= gap[k+1]-sk[k+1] {
			return k
		}
	}
	return maxK
}

func logDispersion(inertia float64) float64 {
	if inertia <= 0 {
		return math.Log(1e-12)
	}
	return math.Log(inertia)
}
