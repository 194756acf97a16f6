// Package segstat implements the summarized statistics that ShapeSearch's
// GROUP operator emits for each small line segment of a trendline, and the
// additive merge of those statistics (Theorem 5.1 of the paper).
//
// A line segment fitted over a set of points (xi, yi) is fully determined by
// five numbers: Σxi, Σyi, Σxi·yi, Σxi², and n. Statistics over two adjacent
// visual segments add component-wise, so the least-squares fit over any
// contiguous region of a trendline can be recovered in O(1) from prefix
// sums of per-bin statistics, with no loss of accuracy. Three of the five
// sums depend on x alone, so a prefix array is held in two parts, XSum and
// YSum, and charts on one x grid can share the first.
package segstat

import "math"

// Stats holds the five summarized statistics of a set of points.
// The zero value is an empty segment.
type Stats struct {
	SumX  float64 // Σ xi
	SumY  float64 // Σ yi
	SumXY float64 // Σ xi·yi
	SumXX float64 // Σ xi²
	N     float64 // number of points
}

// Add accumulates a single point into s.
func (s *Stats) Add(x, y float64) {
	s.SumX += x
	s.SumY += y
	s.SumXY += x * y
	s.SumXX += x * x
	s.N++
}

// Merge returns the summarized statistics of the union of two point sets.
// This is the additivity property of Theorem 5.1: the fit over a combined
// region equals the fit computed from the summed statistics.
func Merge(a, b Stats) Stats {
	return Stats{
		SumX:  a.SumX + b.SumX,
		SumY:  a.SumY + b.SumY,
		SumXY: a.SumXY + b.SumXY,
		SumXX: a.SumXX + b.SumXX,
		N:     a.N + b.N,
	}
}

// Sub returns the statistics of the set difference whole − part, assuming
// part ⊆ whole. It is the inverse of Merge; Range takes the same
// differences of prefix entries held in two parts.
func Sub(whole, part Stats) Stats {
	return Stats{
		SumX:  whole.SumX - part.SumX,
		SumY:  whole.SumY - part.SumY,
		SumXY: whole.SumXY - part.SumXY,
		SumXX: whole.SumXX - part.SumXX,
		N:     whole.N - part.N,
	}
}

// Slope returns the least-squares slope of the line fitted over the points
// summarized by s. Degenerate segments (fewer than two points, or zero
// x-variance) report a slope of 0 and ok=false.
func (s Stats) Slope() (slope float64, ok bool) {
	if s.N < 2 {
		return 0, false
	}
	den := s.N*s.SumXX - s.SumX*s.SumX
	if den == 0 || math.IsNaN(den) {
		return 0, false
	}
	num := s.N*s.SumXY - s.SumX*s.SumY
	sl := num / den
	if math.IsNaN(sl) || math.IsInf(sl, 0) {
		return 0, false
	}
	return sl, true
}

// Intercept returns the least-squares intercept δ = (Σy − θ·Σx)/n of the
// fitted line. ok is false for degenerate segments.
func (s Stats) Intercept() (intercept float64, ok bool) {
	slope, ok := s.Slope()
	if !ok {
		return 0, false
	}
	return (s.SumY - slope*s.SumX) / s.N, true
}

// Line returns both slope and intercept of the fitted line.
func (s Stats) Line() (slope, intercept float64, ok bool) {
	slope, ok = s.Slope()
	if !ok {
		return 0, 0, false
	}
	return slope, (s.SumY - slope*s.SumX) / s.N, true
}

// FromPoints computes the summarized statistics of a point set directly.
func FromPoints(xs, ys []float64) Stats {
	var s Stats
	for i := range xs {
		s.Add(xs[i], ys[i])
	}
	return s
}

// XSum and YSum split one entry of a prefix-sum array over per-bin
// statistics into the part that depends on x alone and the part that
// depends on y too. Charts sampled on one x grid share their XSums. Entry k
// of a prefix array summarizes bins [0, k); Range recovers any run of bins.
type XSum struct {
	SumX  float64 // Σ xi
	SumXX float64 // Σ xi²
	N     float64 // number of points
}

// YSum is the part of a prefix entry that depends on y: see XSum.
type YSum struct {
	SumY  float64 // Σ yi
	SumXY float64 // Σ xi·yi
}

// Range returns the merged statistics of bins [i, j) of a prefix array
// held as its x parts and its y parts: Sub of entries j and i. It panics if
// the range is out of bounds or inverted, mirroring slice semantics.
func Range(x []XSum, y []YSum, i, j int) Stats {
	if i < 0 || j > len(x)-1 || j > len(y)-1 || i > j {
		panic("segstat: Range out of bounds")
	}
	xe, xs, ye, ys := &x[j], &x[i], &y[j], &y[i]
	return Stats{
		SumX:  xe.SumX - xs.SumX,
		SumY:  ye.SumY - ys.SumY,
		SumXY: ye.SumXY - ys.SumXY,
		SumXX: xe.SumXX - xs.SumXX,
		N:     xe.N - xs.N,
	}
}

// MeanStd returns the mean and the population standard deviation of ys:
// the two values ZNormalize applies (see ZScore) and Std reports. Both are 0
// for an empty series.
func MeanStd(ys []float64) (mean, std float64) {
	if len(ys) == 0 {
		return 0, 0
	}
	var sum float64
	for _, y := range ys {
		sum += y
	}
	mean = sum / float64(len(ys))
	var varsum float64
	for _, y := range ys {
		d := y - mean
		varsum += d * d
	}
	return mean, math.Sqrt(varsum / float64(len(ys)))
}

// ZScore is the value ZNormalize writes for y, given its series' MeanStd:
// (y − mean)/std, or y − mean when std is 0 or NaN.
func ZScore(y, mean, std float64) float64 {
	if std == 0 || math.IsNaN(std) {
		return y - mean
	}
	return (y - mean) / std
}

// ZNormalize rescales ys in place to zero mean and unit standard deviation
// (z-score normalization, applied by GROUP when the query has no constraints
// on y values). Constant series are left centered at 0.
func ZNormalize(ys []float64) {
	mean, std := MeanStd(ys)
	for i, y := range ys {
		ys[i] = ZScore(y, mean, std)
	}
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	_, std := MeanStd(xs)
	return std
}
