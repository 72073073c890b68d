package mlkit

import (
	"math"
	"sort"
)

// Tree is a depth-bounded binary classification tree over numeric feature
// vectors (CART with Gini impurity). The paper uses "balanced decision
// trees, setting the maximal depths to the number of clusters for the
// respective state" (§V-B); callers pass that depth.
//
// The nodes sit in one slice in pre-order: a split's left child follows
// it, its right child is at index right, so a prediction walks one array.
type Tree struct {
	nodes   []node
	classes int
	dim     int
	depth   int
}

type node struct {
	threshold float64 // split: left if x[feature] <= threshold
	feature   int32   // split feature, or -1 at a leaf
	right     int32   // split: index of the right child
	label     int32   // leaf: predicted class
}

// TrainTree fits a tree on the samples with the given labels (0-based
// class indices). maxDepth bounds the tree depth; minLeaf is the minimum
// samples per leaf (clamped to >= 1). Returns nil for empty input.
func TrainTree(samples [][]float64, labels []int, maxDepth, minLeaf int) *Tree {
	if len(samples) == 0 || len(samples) != len(labels) {
		return nil
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	if maxDepth < 1 {
		maxDepth = 1
	}
	classes := 0
	for _, l := range labels {
		if l+1 > classes {
			classes = l + 1
		}
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{classes: classes, dim: len(samples[0])}
	t.build(samples, labels, idx, maxDepth, minLeaf, 0)
	return t
}

// build appends the subtree over idx in pre-order; level is its root's
// depth.
func (t *Tree) build(samples [][]float64, labels []int, idx []int, depth, minLeaf, level int) {
	t.depth = max(t.depth, level)
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
	leaf := node{feature: -1, label: int32(majority)}
	if pure || depth == 0 || len(idx) < 2*minLeaf {
		t.nodes = append(t.nodes, leaf)
		return
	}
	feature, threshold, ok := bestSplit(samples, labels, idx, t.classes, minLeaf)
	if !ok {
		t.nodes = append(t.nodes, leaf)
		return
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
		t.nodes = append(t.nodes, leaf)
		return
	}
	at := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: int32(feature), threshold: threshold})
	t.build(samples, labels, li, depth-1, minLeaf, level+1)
	t.nodes[at].right = int32(len(t.nodes))
	t.build(samples, labels, ri, depth-1, minLeaf, level+1)
}

func bestSplit(samples [][]float64, labels []int, idx []int, classes, minLeaf int) (int, float64, bool) {
	bestGini := math.Inf(1)
	bestF, bestT := -1, 0.0
	dim := len(samples[idx[0]])
	order := make([]int, len(idx))
	for f := 0; f < dim; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return samples[order[a]][f] < samples[order[b]][f] })
		leftCounts := make([]int, classes)
		rightCounts := make([]int, classes)
		for _, i := range order {
			rightCounts[labels[i]]++
		}
		nLeft := 0
		nRight := len(order)
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			leftCounts[labels[i]]++
			rightCounts[labels[i]]--
			nLeft++
			nRight--
			v, vn := samples[i][f], samples[order[pos+1]][f]
			if v == vn {
				continue // cannot split between equal values
			}
			if nLeft < minLeaf || nRight < minLeaf {
				continue
			}
			g := weightedGini(leftCounts, nLeft, rightCounts, nRight)
			if g < bestGini {
				bestGini = g
				bestF = f
				bestT = (v + vn) / 2
			}
		}
	}
	return bestF, bestT, bestF >= 0
}

func weightedGini(lc []int, ln int, rc []int, rn int) float64 {
	return (gini(lc, ln)*float64(ln) + gini(rc, rn)*float64(rn)) / float64(ln+rn)
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// Predict classifies one feature vector.
func (t *Tree) Predict(x []float64) int {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return int(n.label)
		}
		if x[n.feature] <= n.threshold {
			i++
		} else {
			i = int(n.right)
		}
	}
}

// Depth returns the depth of the trained tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return t.depth }

// Walk visits the nodes in pre-order (a split's left subtree before its
// right one): a split reports its feature and threshold, a leaf its
// label.
func (t *Tree) Walk(fn func(leaf bool, feature int, threshold float64, label int)) {
	for _, n := range t.nodes {
		if n.feature < 0 {
			fn(true, 0, 0, int(n.label))
		} else {
			fn(false, int(n.feature), n.threshold, 0)
		}
	}
}

// Region is a hyperrectangle over the feature space: for each feature an
// inclusive lower bound and an exclusive upper bound (±Inf when open).
type Region struct {
	Lo []float64
	Hi []float64
}

// Contains reports whether x lies in the region.
func (r Region) Contains(x []float64) bool {
	for d := range x {
		if x[d] < r.Lo[d] || x[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// ClassRegions returns the feature-space regions whose leaves predict the
// given label. Input-based shedding derives its event filter from these
// regions: an event whose features fall into a shed class's region is
// discarded (§IV-C, §V-A).
func (t *Tree) ClassRegions(label int) []Region {
	var regions []Region
	lo := make([]float64, t.dim)
	hi := make([]float64, t.dim)
	for d := 0; d < t.dim; d++ {
		lo[d] = math.Inf(-1)
		hi[d] = math.Inf(1)
	}
	var walk func(i int)
	walk = func(i int) {
		n := t.nodes[i]
		if n.feature < 0 {
			if int(n.label) == label {
				regions = append(regions, Region{Lo: clone(lo), Hi: clone(hi)})
			}
			return
		}
		oldHi := hi[n.feature]
		hi[n.feature] = math.Min(oldHi, n.threshold)
		walk(i + 1)
		hi[n.feature] = oldHi
		oldLo := lo[n.feature]
		lo[n.feature] = math.Max(oldLo, n.threshold)
		walk(int(n.right))
		lo[n.feature] = oldLo
	}
	walk(0)
	return regions
}

func clone(p []float64) []float64 {
	c := make([]float64, len(p))
	copy(c, p)
	return c
}
