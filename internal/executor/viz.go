// Package executor implements ShapeSearch's pattern-matching engine
// (Sections 5 and 6 of the paper): the pipelined EXTRACT → GROUP → SEGMENT
// → SCORE execution model, the optimal dynamic-programming segmenter, the
// SegmentTree pattern-aware segmenter, the greedy and exhaustive baselines,
// DTW/Euclidean baselines, push-down optimizations, and lossless
// collective pruning (a bound-first scan plus deferred exact verification).
package executor

import (
	"math"
	"sync"
	"sync/atomic"

	"shapesearch/internal/dataset"
	"shapesearch/internal/segstat"
	"shapesearch/internal/shapeindex"
	"shapesearch/internal/sketch"
)

// normXSpan is the width of the normalized chart space: the full x range of
// every candidate visualization maps to [0, normXSpan] while y is z-scored
// to unit variance. With span 4, a steady rise across the whole chart from
// −1.7σ to +1.7σ fits a ~40° line — matching how the trend reads on a
// rendered chart, which is what the paper's perceptual scores assume.
const normXSpan = 4.0

// Viz is one candidate visualization after the GROUP operator: the raw
// series plus normalized coordinates and prefix summarized statistics that
// allow O(1) least-squares fits over any point range (Theorem 5.1).
//
// GROUP's output is held in two sides. The x side (xAxis) is what depends
// only on the series' x values and the GROUP keep windows; the charts of one
// grouping pass whose x values match bit for bit share it. The y side is
// what a chart keeps of its own: its Σy and Σx·y prefix sums and the
// z-normalization it applied. Normalized y is not stored: normY recomputes
// it from Series.Y.
type Viz struct {
	// Series is the chart's raw data. Series.X is the x side's raw x, which
	// other charts on the same grid share.
	Series dataset.Series
	// The x side, embedded so that its skip mask reads as v.Skipped.
	*xAxis
	// ysums[k] holds Σy and Σx·y over normalized points [0, k): with the x
	// side's xsums, the chart's prefix summarized statistics.
	ysums []segstat.YSum
	// ymean and ystd are the z-normalization GROUP applied to Series.Y
	// (segstat.MeanStd); znorm is false when GROUP did not normalize.
	ymean, ystd float64
	znorm       bool

	// Chain-compilation inputs derived purely from the visualization,
	// memoized on first use: every chain of every alternative of every
	// query re-reads them, so they must not be recomputed per compile. The
	// Once makes concurrent workers safe.
	memoOnce sync.Once
	yLo, yHi float64
	amp      float64

	// Sound-pruning-bound inputs, memoized separately (only pruned
	// searches pay for them): see pruneSlopeStats.
	pruneOnce sync.Once
	pstats    pruneStats

	// The chart's range-angle table, kept once the chart is searched again
	// (see countAngleRun). angleRuns counts the runs whose tiling tier or
	// exact path needed v's angles while v kept none; only a chart of at
	// most keptAnglesMaxPoints points without a skip mask is counted.
	// angles, published by the second such run, holds them in
	// writeRangeAngles' packed layout: n(n−1)/2 float64s (3,968 B at 32
	// points, about 3× the ≈1.2 KB a 32-point chart on a shared x grid
	// holds), a fresh copy never written again, so any worker may read it
	// without a lock. Every candidate set whose series equals v's shares v
	// (VizPool), so the count spans them all: a chart that drill-down
	// filters leave unchanged keeps its table after its second run in any
	// set. A chart an append changes is a new Viz and starts over at zero.
	angleRuns atomic.Int32
	angles    atomic.Pointer[[]float64]
}

// xAxis is the x side of GROUP's output: everything that depends only on a
// series' x values and the GROUP keep windows. It is immutable once
// groupAfter builds it, and shared by the charts of a grouping pass whose x
// values match its first chart's bit for bit (see groupAfter); the garbage
// collector frees it with the last of them. The raw x is the charts'
// Series.X.
type xAxis struct {
	// nx holds the normalized x coordinates the fits run on.
	nx []float64
	// xsums[k] holds Σx, Σx² and n over normalized points [0, k).
	xsums []segstat.XSum
	// Skipped marks point indices the GROUP operator did not summarize
	// because no query range references them (push-down (c), Section 5.4).
	// Fits touching skipped points are invalid; nil means none skipped.
	Skipped []bool
	// skipPre[k] counts the skipped points among [0, k); nil with Skipped.
	skipPre []int
}

// pruneStats is the per-visualization state the sound pruning bound reads:
// the R most extreme adjacent-pair slopes from each end with prefix sums
// (for O(1) capped-extreme evaluation at any weight cap), and the
// adjacent-gap irregularity ratio of the normalized grid. R covers the
// weight budget of the default width floor; should a run's cap need deeper
// slopes (a larger MinSegmentFrac), cappedExtreme parks the leftover
// budget on the last stored extreme, which errs outward — looser, never
// unsound.
type pruneStats struct {
	nPairs     int
	low        []float64 // smallest slopes, ascending
	lowPrefix  []float64 // lowPrefix[i] = Σ low[:i]
	high       []float64 // largest slopes, descending
	highPrefix []float64 // highPrefix[i] = Σ high[:i]
	ratio      float64   // max/min adjacent NX gap over valid pairs (+Inf when degenerate)
}

// N reports the number of points.
func (v *Viz) N() int { return len(v.nx) }

// groupConfig controls the GROUP operator.
type groupConfig struct {
	// zNormalize applies z-score normalization to y (disabled when the
	// query constrains y values, Section 5.3).
	zNormalize bool
	// keepRanges, when non-nil, lists the domain-x windows the query
	// references; points outside all windows are marked skipped
	// (push-down (c)). Nil keeps everything.
	keepRanges [][2]float64
}

// group builds a Viz from a series (the GROUP physical operator), on an x
// side of its own. Series with fewer than two points yield a nil Viz —
// they cannot host any fit.
func group(s dataset.Series, cfg groupConfig) *Viz {
	return groupAfter(s, cfg, nil)
}

// groupAfter is group for a chart that follows prev in a grouping pass.
// prev, when non-nil, was grouped under cfg too; if s's x values equal
// prev's bit for bit, the new chart shares prev's x side, raw x included,
// and builds only its y side.
func groupAfter(s dataset.Series, cfg groupConfig, prev *Viz) *Viz {
	n := s.Len()
	if n < 2 {
		return nil
	}
	v := &Viz{Series: s, ysums: make([]segstat.YSum, n+1), znorm: cfg.zNormalize}
	if v.znorm {
		v.ymean, v.ystd = segstat.MeanStd(s.Y)
	}
	shared := prev != nil && sameBits(prev.Series.X, s.X)
	if shared {
		v.Series.X, v.xAxis = prev.Series.X, prev.xAxis
	} else {
		v.xAxis = newXAxis(s.X, cfg.keepRanges)
	}
	// One pass builds both sides' prefix sums, with the float operations of
	// a Stats.Add per point followed by a Merge into the running sums; a
	// shared x side keeps the x sums its first chart built.
	var acc segstat.Stats
	for i := 0; i < n; i++ {
		var b segstat.Stats
		if v.Skipped == nil || !v.Skipped[i] {
			b.Add(v.nx[i], v.normY(i))
		} // a skipped point adds empty stats; fits over it are invalid anyway
		acc = segstat.Merge(acc, b)
		if !shared {
			v.xsums[i+1] = segstat.XSum{SumX: acc.SumX, SumXX: acc.SumXX, N: acc.N}
		}
		v.ysums[i+1] = segstat.YSum{SumY: acc.SumY, SumXY: acc.SumXY}
	}
	return v
}

// newXAxis builds the x side of raw x values xs under the GROUP keep
// windows; groupAfter fills its prefix sums.
func newXAxis(xs []float64, keepRanges [][2]float64) *xAxis {
	n := len(xs)
	x := &xAxis{nx: make([]float64, n), xsums: make([]segstat.XSum, n+1)}
	xmin, xmax := xs[0], xs[n-1]
	span := xmax - xmin
	if span <= 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		x.nx[i] = (xs[i] - xmin) / span * normXSpan
	}
	if keepRanges != nil {
		x.Skipped = make([]bool, n)
		x.skipPre = make([]int, n+1)
		for i := 0; i < n; i++ {
			x.Skipped[i] = !dataset.InRanges(xs[i], keepRanges)
			x.skipPre[i+1] = x.skipPre[i]
			if x.Skipped[i] {
				x.skipPre[i+1]++
			}
		}
	}
	return x
}

// normY returns the normalized y value of point i, recomputed from
// Series.Y: bit for bit what segstat.ZNormalize writes when GROUP
// normalizes, and the raw value when it does not.
func (v *Viz) normY(i int) float64 {
	if !v.znorm {
		return v.Series.Y[i]
	}
	return segstat.ZScore(v.Series.Y[i], v.ymean, v.ystd)
}

// rangeStats returns the summarized statistics of inclusive point range
// [i, j].
func (v *Viz) rangeStats(i, j int) segstat.Stats {
	return segstat.Range(v.xsums, v.ysums, i, j+1)
}

// rangeSlope returns the least-squares slope over inclusive point range
// [i, j] in normalized coordinates; degenerate ranges report ok=false.
func (v *Viz) rangeSlope(i, j int) (float64, bool) {
	return v.rangeStats(i, j).Slope()
}

// indexOfX maps a domain x value to the nearest point index at or after it.
func (v *Viz) indexOfX(x float64) int {
	xs := v.Series.X
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(xs) {
		return len(xs) - 1
	}
	return lo
}

// indexAtOrBefore maps a domain x value to the nearest point index at or
// before it.
func (v *Viz) indexAtOrBefore(x float64) int {
	i := v.indexOfX(x)
	if i > 0 && v.Series.X[i] > x {
		return i - 1
	}
	return i
}

// padRanges widens each domain window slightly so boundary points survive
// rounding when the GROUP skip-mask is applied.
func padRanges(ranges [][2]float64, pad float64) [][2]float64 {
	out := make([][2]float64, len(ranges))
	for i, r := range ranges {
		out[i] = [2]float64{r[0] - pad, r[1] + pad}
	}
	return out
}

// memoize fills the lazily derived per-viz statistics exactly once: the
// raw y range and ampUnit, one standard deviation of the normalized y
// values. No Viz stores normalized y, so the memo writes it to ec's scratch
// and takes segstat.Std of that. Quantifier occurrences must move at least
// a quarter of ampUnit to count as a perceptible rise or fall; it is never
// zero, flat charts report 1.
func (v *Viz) memoize(ec *evalCtx) {
	v.memoOnce.Do(func() {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, y := range v.Series.Y {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		v.yLo, v.yHi = lo, hi
		ny := grow(&ec.normY, v.N())
		for i := range ny {
			ny[i] = v.normY(i)
		}
		v.amp = segstat.Std(ny)
		if v.amp == 0 {
			v.amp = 1
		}
	})
}

// pruneSlopeStats fills and returns the sound pruning bound's per-viz
// inputs exactly once (safe across concurrent workers). Pairs touching
// skipped points are excluded — no valid unit range can contain them, so
// they cannot influence any fitted slope the bound must cover.
func (v *Viz) pruneSlopeStats() *pruneStats {
	v.pruneOnce.Do(func() {
		n := v.N()
		// R extremes per end cover the capped-weight budget of the default
		// width floor (≈ m/1.5 slopes for m = 0.05·n points, see
		// maxSlopeWeight); +2 absorbs rounding.
		r := (n-1)/30 + 2
		ext := segstat.NewExtremes(r)
		dMin, dMax := math.Inf(1), math.Inf(-1)
		pairs := 0
		for i := 0; i+1 < n; i++ {
			if v.Skipped != nil && (v.Skipped[i] || v.Skipped[i+1]) {
				continue
			}
			s, ok := v.rangeSlope(i, i+1)
			if !ok {
				continue
			}
			pairs++
			ext.Observe(s)
			d := v.nx[i+1] - v.nx[i]
			if d < dMin {
				dMin = d
			}
			if d > dMax {
				dMax = d
			}
		}
		lowPrefix, highPrefix := ext.PrefixSums()
		ratio := math.Inf(1)
		if dMin > 0 {
			ratio = dMax / dMin
		}
		v.pstats = pruneStats{nPairs: pairs, low: ext.Low(), lowPrefix: lowPrefix, high: ext.High(), highPrefix: highPrefix, ratio: ratio}
	})
	return &v.pstats
}

// indexPAAWindows is the resolution of the coarse direction sketch the
// corpus index buckets by. It only shapes bucket composition (envelope
// tightness), never soundness, so the exact value is a tuning knob.
const indexPAAWindows = 16

// boundSummary exports the visualization's query-independent bound state in
// the corpus index's Summary form: the pruneSlopeStats extremes and prefix
// sums (shared, not copied — both sides treat them as immutable), the grid
// ratio, the evaluation-failure flag, and the coarse direction sketch used
// as the bucketing key.
func (v *Viz) boundSummary() *shapeindex.Summary {
	ps := v.pruneSlopeStats()
	return &shapeindex.Summary{
		N:          v.N(),
		NPairs:     ps.nPairs,
		Low:        ps.low,
		LowPrefix:  ps.lowPrefix,
		High:       ps.high,
		HighPrefix: ps.highPrefix,
		Ratio:      ps.ratio,
		MayFail:    v.Skipped != nil || math.IsInf(ps.ratio, 1),
		UpDown:     sketch.Directions(v.nx, v.normY, indexPAAWindows),
	}
}

// keptRangeAngles returns the range-angle table v keeps, or nil while it
// keeps none. The caller must not write to it.
func (v *Viz) keptRangeAngles() []float64 {
	if t := v.angles.Load(); t != nil {
		return *t
	}
	return nil
}
