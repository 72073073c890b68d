// Package mlkit contains the small machine-learning substrate the cost
// model needs: k-means clustering, the gap statistic for choosing the
// number of clusters, and depth-bounded decision trees used as per-state
// partial-match classifiers (§V-B of the paper).
package mlkit

import (
	"math"
	"math/rand"
)

// KMeansResult holds the outcome of a k-means run.
type KMeansResult struct {
	Centroids [][2]float64 // k centroids
	Labels    []int        // cluster index per input point
	Inertia   float64      // sum of squared distances to assigned centroids
}

// KMeans clusters 2-D points into k clusters using k-means++ seeding and
// Lloyd's algorithm, deterministic under the given rng; k is clamped to
// [1, len(points)].
func KMeans(points [][2]float64, k int, rng *rand.Rand) KMeansResult {
	if len(points) == 0 {
		return KMeansResult{}
	}
	var km kmeans
	inertia := km.fit(points, k, rng)
	return KMeansResult{Centroids: km.cents, Labels: km.labels, Inertia: inertia}
}

// kmeans is the clustering kernel with its scratch, which the gap
// statistic reuses across all its runs. Every run draws from rng, breaks
// distance ties toward the lowest centroid index and sums distances,
// centroid coordinates and inertia in point order, so a run's outcome
// and the draws it leaves for the next are fixed by (points, k, rng).
type kmeans struct {
	labels []int
	cents  [][2]float64
	sums   [][2]float64
	counts []int
	minD   []float64 // k-means++: each point's distance to its nearest chosen centroid
}

// fit runs k-means on points (len(points) > 0), leaving labels and
// centroids in km.labels and km.cents, and returns the inertia.
func (km *kmeans) fit(points [][2]float64, k int, rng *rand.Rand) float64 {
	n := len(points)
	k = max(1, min(k, n))
	km.labels = resize(km.labels, n) // iteration 0 assigns every label
	km.cents = resize(km.cents, k)
	km.sums = resize(km.sums, k)
	km.counts = resize(km.counts, k)
	km.seed(points, rng)
	labels, cents, sums, counts := km.labels, km.cents, km.sums, km.counts
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range cents {
				if d := sqDist(p, cents[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		clear(sums)
		clear(counts)
		for i, p := range points {
			c := labels[i]
			counts[c]++
			sums[c][0] += p[0]
			sums[c][1] += p[1]
		}
		for c := range cents {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				cents[c] = points[rng.Intn(n)]
				continue
			}
			cents[c] = [2]float64{sums[c][0] / float64(counts[c]), sums[c][1] / float64(counts[c])}
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += sqDist(p, cents[labels[i]])
	}
	return inertia
}

// seed picks len(km.cents) initial centroids by k-means++: each next one
// is a point drawn with probability proportional to its squared distance
// to the nearest centroid already chosen, which km.minD keeps up to date
// one new centroid at a time.
func (km *kmeans) seed(points [][2]float64, rng *rand.Rand) {
	n, cents := len(points), km.cents
	km.minD = resize(km.minD, n)
	minD := km.minD
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	cents[0] = points[rng.Intn(n)]
	for c := 1; c < len(cents); c++ {
		last := cents[c-1]
		var total float64
		for i, p := range points {
			if d := sqDist(p, last); d < minD[i] {
				minD[i] = d
			}
			total += minD[i]
		}
		if total == 0 {
			// All points coincide with chosen centroids; duplicate one.
			cents[c] = points[rng.Intn(n)]
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range minD {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		cents[c] = points[idx]
	}
}

func sqDist(a, b [2]float64) float64 {
	d0, d1 := a[0]-b[0], a[1]-b[1]
	return d0*d0 + d1*d1
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
