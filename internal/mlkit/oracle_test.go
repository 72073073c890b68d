package mlkit

import (
	"math"
	"math/rand"
)

// This file keeps the straightforward k-means, gap statistic and pointer
// tree that the flat kernels replaced, as differential oracles: the
// kernels must reproduce them bit for bit, draws from the rng included.

type oracleResult struct {
	Centroids [][]float64
	Labels    []int
	Inertia   float64
}

func oracleKMeans(points [][]float64, k int, rng *rand.Rand) oracleResult {
	n := len(points)
	if n == 0 {
		return oracleResult{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dim := len(points[0])
	centroids := oracleSeed(points, k, rng)
	labels := make([]int, n)
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := oracleSqDist(p, cent); d < bestD {
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
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := labels[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				centroids[c] = clone(points[rng.Intn(n)])
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += oracleSqDist(p, centroids[labels[i]])
	}
	return oracleResult{Centroids: centroids, Labels: labels, Inertia: inertia}
}

func oracleSeed(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(points[rng.Intn(n)]))
	dists := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centroids {
				if sd := oracleSqDist(p, c); sd < d {
					d = sd
				}
			}
			dists[i] = d
			total += d
		}
		if total == 0 {
			centroids = append(centroids, clone(points[rng.Intn(n)]))
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range dists {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, clone(points[idx]))
	}
	return centroids
}

func oracleSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func oracleGapStatistic(points [][]float64, maxK, refSets int, rng *rand.Rand) int {
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
	dim := len(points[0])
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	copy(lo, points[0])
	copy(hi, points[0])
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
	logW := make([]float64, maxK+1)
	gap := make([]float64, maxK+1)
	sk := make([]float64, maxK+1)
	for k := 1; k <= maxK; k++ {
		logW[k] = logDispersion(oracleKMeans(points, k, rng).Inertia)
		refLogs := make([]float64, refSets)
		for b := 0; b < refSets; b++ {
			ref := make([][]float64, n)
			for i := range ref {
				p := make([]float64, dim)
				for d := range p {
					p[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
				}
				ref[i] = p
			}
			refLogs[b] = logDispersion(oracleKMeans(ref, k, rng).Inertia)
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
		gap[k] = mean - logW[k]
		sk[k] = sd * math.Sqrt(1+1/float64(refSets))
	}
	for k := 1; k < maxK; k++ {
		if gap[k] >= gap[k+1]-sk[k+1] {
			return k
		}
	}
	return maxK
}

// oracleTree is the pointer-node tree, trained with the same split
// search (bestSplit) as Tree.
type oracleTree struct {
	root    *oracleNode
	classes int
	dim     int
}

type oracleNode struct {
	feature     int
	threshold   float64
	left, right *oracleNode
	label       int
}

func oracleTrainTree(samples [][]float64, labels []int, maxDepth, minLeaf int) *oracleTree {
	if len(samples) == 0 || len(samples) != len(labels) {
		return nil
	}
	minLeaf, maxDepth = max(minLeaf, 1), max(maxDepth, 1)
	classes := 0
	for _, l := range labels {
		classes = max(classes, l+1)
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t := &oracleTree{classes: classes, dim: len(samples[0])}
	t.root = t.build(samples, labels, idx, maxDepth, minLeaf)
	return t
}

func (t *oracleTree) build(samples [][]float64, labels []int, idx []int, depth, minLeaf int) *oracleNode {
	counts := make([]int, t.classes)
	for _, i := range idx {
		counts[labels[i]]++
	}
	majority, majCount := 0, -1
	pure := true
	for c, n := range counts {
		if n > majCount {
			majority, majCount = c, n
		}
		if n != 0 && n != len(idx) {
			pure = false
		}
	}
	if pure || depth == 0 || len(idx) < 2*minLeaf {
		return &oracleNode{label: majority}
	}
	feature, threshold, ok := bestSplit(samples, labels, idx, t.classes, minLeaf)
	if !ok {
		return &oracleNode{label: majority}
	}
	var li, ri []int
	for _, i := range idx {
		if samples[i][feature] <= threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &oracleNode{label: majority}
	}
	return &oracleNode{
		feature:   feature,
		threshold: threshold,
		left:      t.build(samples, labels, li, depth-1, minLeaf),
		right:     t.build(samples, labels, ri, depth-1, minLeaf),
		label:     majority,
	}
}

func (t *oracleTree) predict(x []float64) int {
	n := t.root
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

func (t *oracleTree) depth() int {
	var depthOf func(n *oracleNode) int
	depthOf = func(n *oracleNode) int {
		if n.left == nil {
			return 0
		}
		return 1 + max(depthOf(n.left), depthOf(n.right))
	}
	return depthOf(t.root)
}

func (t *oracleTree) classRegions(label int) []Region {
	var regions []Region
	lo := make([]float64, t.dim)
	hi := make([]float64, t.dim)
	for d := 0; d < t.dim; d++ {
		lo[d] = math.Inf(-1)
		hi[d] = math.Inf(1)
	}
	var walk func(n *oracleNode)
	walk = func(n *oracleNode) {
		if n.left == nil {
			if n.label == label {
				regions = append(regions, Region{Lo: clone(lo), Hi: clone(hi)})
			}
			return
		}
		oldHi := hi[n.feature]
		hi[n.feature] = math.Min(oldHi, n.threshold)
		walk(n.left)
		hi[n.feature] = oldHi
		oldLo := lo[n.feature]
		lo[n.feature] = math.Max(oldLo, n.threshold)
		walk(n.right)
		lo[n.feature] = oldLo
	}
	walk(t.root)
	return regions
}
