package mlkit

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelMismatch runs KMeans(k) and then GapStatistic(maxK, refSets) on
// one rng seeded with seed, and the oracles on another, and describes
// the first difference: labels, centroids, inertia, chosen k, or the
// rng's next draws. "" means bit-identical.
func kernelMismatch(points [][2]float64, k, maxK, refSets int, seed int64) string {
	rows := make([][]float64, len(points))
	for i, p := range points {
		rows[i] = []float64{p[0], p[1]}
	}
	rng, orng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := KMeans(points, k, rng), oracleKMeans(rows, k, orng)
	if fmt.Sprint(got.Labels) != fmt.Sprint(want.Labels) {
		return fmt.Sprintf("labels %v, oracle %v", got.Labels, want.Labels)
	}
	if len(got.Centroids) != len(want.Centroids) {
		return fmt.Sprintf("%d centroids, oracle %d", len(got.Centroids), len(want.Centroids))
	}
	for c, cent := range got.Centroids {
		if !sameFloat(cent[0], want.Centroids[c][0]) || !sameFloat(cent[1], want.Centroids[c][1]) {
			return fmt.Sprintf("centroid %d %v, oracle %v", c, cent, want.Centroids[c])
		}
	}
	if !sameFloat(got.Inertia, want.Inertia) {
		return fmt.Sprintf("inertia %v, oracle %v", got.Inertia, want.Inertia)
	}
	if g, w := GapStatistic(points, maxK, refSets, rng), oracleGapStatistic(rows, maxK, refSets, orng); g != w {
		return fmt.Sprintf("gap statistic k=%d, oracle %d", g, w)
	}
	for i := 0; i < 2; i++ {
		if g, w := rng.Int63(), orng.Int63(); g != w {
			return fmt.Sprintf("rng draw %d after the runs: %d, oracle %d", i, g, w)
		}
	}
	return ""
}

// sameFloat compares bits, with every NaN alike.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestKernelMatchesOracle is the seeded differential: blobs, uniform
// clouds and coarse grids full of duplicate points, every k up to past n.
func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		points := make([][2]float64, n)
		for i := range points {
			switch trial % 3 {
			case 0:
				c := float64(rng.Intn(4))
				points[i] = [2]float64{c + rng.NormFloat64()*0.1, c*c + rng.NormFloat64()*0.1}
			case 1:
				points[i] = [2]float64{rng.Float64(), rng.Float64()}
			default:
				points[i] = [2]float64{float64(rng.Intn(3)), float64(rng.Intn(2))}
			}
		}
		k, maxK, refSets := rng.Intn(n+3), 1+rng.Intn(10), 1+rng.Intn(5)
		if d := kernelMismatch(points, k, maxK, refSets, int64(trial)); d != "" {
			t.Fatalf("trial %d (n=%d k=%d maxK=%d refSets=%d): %s", trial, n, k, maxK, refSets, d)
		}
	}
}

// fuzzPoints decodes a fuzz input into at most 64 points. An even first
// byte selects a coarse grid of int8 quarters (duplicates and coincident
// centroids are common); an odd one takes raw float64 bits, NaN and
// ±Inf included.
func fuzzPoints(data []byte) [][2]float64 {
	if len(data) == 0 {
		return nil
	}
	raw, data := data[0]&1 == 1, data[1:]
	var points [][2]float64
	for len(points) < 64 {
		if raw {
			if len(data) < 16 {
				break
			}
			points = append(points, [2]float64{
				math.Float64frombits(binary.LittleEndian.Uint64(data)),
				math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			})
			data = data[16:]
		} else {
			if len(data) < 2 {
				break
			}
			points = append(points, [2]float64{float64(int8(data[0])) / 4, float64(int8(data[1])) / 4})
			data = data[2:]
		}
	}
	return points
}

// FuzzKMeansMatchesOracle requires the kernel to match the oracles bit
// for bit on any input. The seed corpus in testdata/fuzz covers duplicate
// points, k > n, a single point, coincident centroids that force an
// empty cluster's re-seed, and NaN, ±Inf and -0 coordinates.
func FuzzKMeansMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, k, maxK, refSets uint8, seed int64) {
		points := fuzzPoints(data)
		if len(points) == 0 {
			return
		}
		if d := kernelMismatch(points, int(k%12), int(maxK%12), int(refSets%6), seed); d != "" {
			t.Fatalf("%d points %v: %s", len(points), points, d)
		}
	})
}

// TestTreeMatchesPointerOracle checks the flat tree against the pointer
// tree on the training samples and on random points, which include every
// split threshold: predictions, depth and every class's regions.
func TestTreeMatchesPointerOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n, dim, classes := 1+rng.Intn(120), 1+rng.Intn(4), 1+rng.Intn(8)
		samples := make([][]float64, n)
		labels := make([]int, n)
		for i := range samples {
			samples[i] = make([]float64, dim)
			for d := range samples[i] {
				samples[i][d] = float64(rng.Intn(20))
			}
			labels[i] = rng.Intn(classes)
		}
		depth, minLeaf := rng.Intn(10), rng.Intn(3)
		got, want := TrainTree(samples, labels, depth, minLeaf), oracleTrainTree(samples, labels, depth, minLeaf)
		if got.Depth() != want.depth() {
			t.Fatalf("trial %d: depth %d, oracle %d", trial, got.Depth(), want.depth())
		}
		probe := append([][]float64(nil), samples...)
		for i := 0; i < 200; i++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = float64(rng.Intn(48))/2 - 2 // half-integers: on every threshold, between the samples
			}
			probe = append(probe, x)
		}
		for _, x := range probe {
			if g, w := got.Predict(x), want.predict(x); g != w {
				t.Fatalf("trial %d: Predict(%v) = %d, oracle %d", trial, x, g, w)
			}
		}
		for c := 0; c < classes; c++ {
			if g, w := fmt.Sprint(got.ClassRegions(c)), fmt.Sprint(want.classRegions(c)); g != w {
				t.Fatalf("trial %d: class %d regions %s, oracle %s", trial, c, g, w)
			}
		}
	}
}

// BenchmarkGapStatistic times one state's choice of k as training makes
// it (maxK 10, 4 reference sets) on 400 points in three blobs, with the
// kernel and with the oracle.
func BenchmarkGapStatistic(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	points := make([][2]float64, 400)
	rows := make([][]float64, len(points))
	for i := range points {
		c := float64(i % 3)
		points[i] = [2]float64{c + rng.NormFloat64()*0.2, c*c/4 + rng.NormFloat64()*0.2}
		rows[i] = points[i][:]
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GapStatistic(points, 10, 4, rand.New(rand.NewSource(1)))
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleGapStatistic(rows, 10, 4, rand.New(rand.NewSource(1)))
		}
	})
}
