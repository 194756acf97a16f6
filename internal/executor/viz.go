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
type Viz struct {
	Series dataset.Series
	// NX and NY are the normalized coordinates the fits run on.
	NX, NY []float64
	// Prefix[i] summarizes normalized points [0, i).
	Prefix segstat.Prefix
	// Skipped marks point indices the GROUP operator did not summarize
	// because no query range references them (push-down (c), Section 5.4).
	// Fits touching skipped points are invalid; nil means none skipped.
	Skipped []bool

	// Chain-compilation inputs derived purely from the visualization,
	// memoized on first use: every chain of every alternative of every
	// query re-reads them, so they must not be recomputed per compile.
	// Lazy (not filled in group) so directly constructed Viz literals in
	// tests behave identically; the Once makes concurrent workers safe.
	memoOnce sync.Once
	yLo, yHi float64
	amp      float64
	skipPre  []int

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
	// points, about 1.5× the ≈72n + 368 B the rest of the Viz holds), a
	// fresh copy never written again, so any worker may read it without a
	// lock. Every candidate set whose series equals v's shares v (VizPool),
	// so the count spans them all: a chart that drill-down filters leave
	// unchanged keeps its table after its second run in any set. A chart
	// an append changes is a new Viz and starts over at zero.
	angleRuns atomic.Int32
	angles    atomic.Pointer[[]float64]
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
func (v *Viz) N() int { return len(v.NX) }

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

// group builds a Viz from a series (the GROUP physical operator). Series
// with fewer than two points yield a nil Viz — they cannot host any fit.
func group(s dataset.Series, cfg groupConfig) *Viz {
	n := s.Len()
	if n < 2 {
		return nil
	}
	v := &Viz{Series: s}
	v.NX = make([]float64, n)
	v.NY = make([]float64, n)
	xmin, xmax := s.X[0], s.X[n-1]
	span := xmax - xmin
	if span <= 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		v.NX[i] = (s.X[i] - xmin) / span * normXSpan
	}
	copy(v.NY, s.Y)
	if cfg.zNormalize {
		segstat.ZNormalize(v.NY)
	}
	if cfg.keepRanges != nil {
		v.Skipped = make([]bool, n)
		for i := 0; i < n; i++ {
			v.Skipped[i] = !dataset.InRanges(s.X[i], cfg.keepRanges)
		}
	}
	bins := make([]segstat.Stats, n)
	for i := 0; i < n; i++ {
		if v.Skipped != nil && v.Skipped[i] {
			continue // contributes empty stats; fits over skipped points are invalid anyway
		}
		var b segstat.Stats
		b.Add(v.NX[i], v.NY[i])
		bins[i] = b
	}
	v.Prefix = segstat.BuildPrefix(bins)
	return v
}

// rangeStats returns the summarized statistics of inclusive point range
// [i, j].
func (v *Viz) rangeStats(i, j int) segstat.Stats {
	return v.Prefix.Range(i, j+1)
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

// memoize fills the lazily derived per-viz statistics exactly once.
func (v *Viz) memoize() {
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
		v.amp = segstat.Std(v.NY)
		if v.amp == 0 {
			v.amp = 1
		}
		if v.Skipped != nil {
			pre := make([]int, len(v.Skipped)+1)
			for i, s := range v.Skipped {
				pre[i+1] = pre[i]
				if s {
					pre[i+1]++
				}
			}
			v.skipPre = pre
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
			d := v.NX[i+1] - v.NX[i]
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
		UpDown:     sketch.Directions(v.NX, v.NY, indexPAAWindows),
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

// yRange reports the min and max of the raw y values (memoized).
func (v *Viz) yRange() (lo, hi float64) {
	v.memoize()
	return v.yLo, v.yHi
}

// ampUnit is one standard deviation of the normalized y values (memoized);
// quantifier occurrences must move at least a quarter of it to count as a
// perceptible rise or fall. Never zero: flat charts report 1.
func (v *Viz) ampUnit() float64 {
	v.memoize()
	return v.amp
}

// skipPrefix returns the skipped-point prefix sums (memoized); nil when the
// GROUP operator summarized everything.
func (v *Viz) skipPrefix() []int {
	v.memoize()
	return v.skipPre
}
