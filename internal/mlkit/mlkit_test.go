package mlkit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoBlobs(rng *rand.Rand, n int) ([][2]float64, []int) {
	pts := make([][2]float64, 0, 2*n)
	labels := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		pts = append(pts, [2]float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		labels = append(labels, 0)
	}
	for i := 0; i < n; i++ {
		pts = append(pts, [2]float64{10 + rng.NormFloat64()*0.3, 10 + rng.NormFloat64()*0.3})
		labels = append(labels, 1)
	}
	return pts, labels
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, want := twoBlobs(rng, 50)
	res := KMeans(pts, 2, rng)
	// All points of a blob must share a label and the two blobs must differ.
	l0 := res.Labels[0]
	for i := 1; i < 50; i++ {
		if res.Labels[i] != l0 {
			t.Fatalf("blob 0 split at %d", i)
		}
	}
	l1 := res.Labels[50]
	if l1 == l0 {
		t.Fatal("blobs merged")
	}
	for i := 51; i < 100; i++ {
		if res.Labels[i] != l1 {
			t.Fatalf("blob 1 split at %d", i)
		}
	}
	_ = want
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if res := KMeans(nil, 3, rng); res.Labels != nil {
		t.Error("empty input should return zero result")
	}
	pts := [][2]float64{{1, 1}}
	res := KMeans(pts, 5, rng) // k clamps to n
	if len(res.Centroids) != 1 || res.Labels[0] != 0 {
		t.Error("k > n not clamped")
	}
	res = KMeans(pts, 0, rng) // k clamps to 1
	if len(res.Centroids) != 1 {
		t.Error("k < 1 not clamped")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := [][2]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res := KMeans(pts, 2, rng)
	if res.Inertia != 0 {
		t.Errorf("inertia = %v, want 0", res.Inertia)
	}
}

// Property: inertia never increases when k increases (on the same data/rng
// stream it can fluctuate due to seeding, so compare k=1 vs best-of-3 k=n/2).
func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := twoBlobs(rng, 30)
	one := KMeans(pts, 1, rng).Inertia
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		if in := KMeans(pts, 4, rng).Inertia; in < best {
			best = in
		}
	}
	if best >= one {
		t.Errorf("k=4 inertia %v not below k=1 inertia %v", best, one)
	}
}

func TestGapStatisticFindsTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := twoBlobs(rng, 40)
	k := GapStatistic(pts, 6, 5, rng)
	if k != 2 {
		t.Errorf("gap statistic chose k=%d, want 2", k)
	}
}

func TestGapStatisticUniformPrefersFewClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([][2]float64, 120)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	k := GapStatistic(pts, 6, 5, rng)
	if k > 3 {
		t.Errorf("uniform data chose k=%d, want small", k)
	}
}

func TestGapStatisticEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if k := GapStatistic(nil, 5, 3, rng); k != 1 {
		t.Errorf("empty input: k=%d", k)
	}
	pts := [][2]float64{{1, 0}, {2, 0}}
	if k := GapStatistic(pts, 10, 3, rng); k < 1 || k > 2 {
		t.Errorf("k=%d out of range", k)
	}
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	var samples [][]float64
	var labels []int
	for i := 0; i < 50; i++ {
		samples = append(samples, []float64{float64(i), 0})
		if i < 25 {
			labels = append(labels, 0)
		} else {
			labels = append(labels, 1)
		}
	}
	tree := TrainTree(samples, labels, 3, 1)
	if tree == nil {
		t.Fatal("nil tree")
	}
	for i, s := range samples {
		if got := tree.Predict(s); got != labels[i] {
			t.Fatalf("Predict(%v) = %d, want %d", s, got, labels[i])
		}
	}
	if tree.Depth() != 1 {
		t.Errorf("depth = %d, want 1 for a single split", tree.Depth())
	}
}

func TestTreeDepthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples [][]float64
	var labels []int
	for i := 0; i < 200; i++ {
		x, y := rng.Float64(), rng.Float64()
		samples = append(samples, []float64{x, y})
		labels = append(labels, rng.Intn(4))
	}
	tree := TrainTree(samples, labels, 2, 1)
	if d := tree.Depth(); d > 2 {
		t.Errorf("depth = %d exceeds bound 2", d)
	}
}

func TestTreeEdgeCases(t *testing.T) {
	if TrainTree(nil, nil, 3, 1) != nil {
		t.Error("empty training set should return nil")
	}
	if TrainTree([][]float64{{1}}, []int{0, 1}, 3, 1) != nil {
		t.Error("mismatched lengths should return nil")
	}
	// Single-class data yields a pure leaf.
	tree := TrainTree([][]float64{{1}, {2}, {3}}, []int{1, 1, 1}, 3, 1)
	if tree.Predict([]float64{99}) != 1 {
		t.Error("pure tree must predict the single class")
	}
	if tree.Depth() != 0 {
		t.Error("pure tree must be a leaf")
	}
}

func TestTreeClassRegions(t *testing.T) {
	var samples [][]float64
	var labels []int
	for i := 0; i < 40; i++ {
		v := float64(i)
		samples = append(samples, []float64{v})
		if v < 20 {
			labels = append(labels, 0)
		} else {
			labels = append(labels, 1)
		}
	}
	tree := TrainTree(samples, labels, 2, 1)
	r0 := tree.ClassRegions(0)
	r1 := tree.ClassRegions(1)
	if len(r0) == 0 || len(r1) == 0 {
		t.Fatal("regions missing")
	}
	if !r0[0].Contains([]float64{5}) || r0[0].Contains([]float64{30}) {
		t.Errorf("class-0 region wrong: %+v", r0[0])
	}
	if !r1[0].Contains([]float64{30}) || r1[0].Contains([]float64{5}) {
		t.Errorf("class-1 region wrong: %+v", r1[0])
	}
}

// Property: a point always lands in exactly the region set of its
// predicted class (regions partition the feature space by prediction).
func TestTreeRegionsConsistentWithPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var samples [][]float64
	var labels []int
	for i := 0; i < 150; i++ {
		x, y := rng.Float64()*10, rng.Float64()*10
		samples = append(samples, []float64{x, y})
		l := 0
		if x > 5 {
			l++
		}
		if y > 5 {
			l += 2
		}
		labels = append(labels, l)
	}
	tree := TrainTree(samples, labels, 4, 1)
	regions := map[int][]Region{}
	for c := 0; c < 4; c++ {
		regions[c] = tree.ClassRegions(c)
	}
	f := func(xr, yr uint16) bool {
		p := []float64{float64(xr%1000) / 100, float64(yr%1000) / 100}
		pred := tree.Predict(p)
		found := false
		for _, r := range regions[pred] {
			if r.Contains(p) {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
