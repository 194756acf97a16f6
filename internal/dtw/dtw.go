// Package dtw implements the value-based shape similarity baselines the
// paper compares against (Section 9): unconstrained Dynamic Time Warping
// [36] and point-wise Euclidean distance. Both operate on z-normalized
// series, the standard preprocessing for scaling and translation
// invariance [16].
package dtw

import (
	"math"

	"shapesearch/internal/score"
	"shapesearch/internal/segstat"
)

// Distance computes the unconstrained DTW distance between two series: the
// square root of the minimal sum of squared point differences along a
// monotone alignment path. An empty input yields +Inf.
func Distance(a, b []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	// Rolling two-row DP over the (n+1) x (m+1) cost matrix.
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			d := a[i-1] - b[j-1]
			c := d * d
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = c + best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

// Euclidean computes the point-wise L2 distance between two series,
// resampling the shorter to the longer's length first.
func Euclidean(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	ra := score.Resample(a, n)
	rb := score.Resample(b, n)
	var sum float64
	for i := range ra {
		d := ra[i] - rb[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Similarity maps a DTW or Euclidean distance over z-normalized series of
// the given length onto the ShapeSearch score range [−1, 1], so baseline
// rankings are directly comparable with algebra scores: 0 distance → 1,
// and distances at or beyond tau·sqrt(n) → −1.
func Similarity(dist float64, n int, tau float64) float64 {
	if n <= 0 || math.IsInf(dist, 1) {
		return score.WorstScore
	}
	if tau <= 0 {
		tau = 2.0
	}
	norm := dist / math.Sqrt(float64(n))
	return score.Clamp(1 - 2*norm/tau)
}

// ZNormalized returns a z-normalized copy of the series.
func ZNormalized(ys []float64) []float64 {
	out := append([]float64(nil), ys...)
	segstat.ZNormalize(out)
	return out
}
