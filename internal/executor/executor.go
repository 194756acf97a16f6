package executor

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"shapesearch/internal/dataset"
	"shapesearch/internal/score"
	"shapesearch/internal/shape"
)

// Algorithm selects the segmentation strategy for fuzzy queries.
type Algorithm int

const (
	// AlgAuto picks SegmentTree for fuzzy queries (the system default).
	AlgAuto Algorithm = iota
	// AlgDP is the optimal O(n²k) dynamic program (Section 6.1).
	AlgDP
	// AlgSegmentTree is the O(nk³) pattern-aware segmenter (Section 6.2).
	AlgSegmentTree
	// AlgGreedy is the local-search baseline (Section 9).
	AlgGreedy
	// AlgExhaustive enumerates all segmentations; small inputs only.
	AlgExhaustive
	// AlgDTW ranks by Dynamic Time Warping distance to a reference
	// trendline synthesized from the query (the VQS baseline).
	AlgDTW
	// AlgEuclidean ranks by z-normalized Euclidean distance to the same
	// reference.
	AlgEuclidean
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgDP:
		return "dp"
	case AlgSegmentTree:
		return "segmenttree"
	case AlgGreedy:
		return "greedy"
	case AlgExhaustive:
		return "exhaustive"
	case AlgDTW:
		return "dtw"
	case AlgEuclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm parses an algorithm name as String renders it; the empty
// name is AlgAuto and "tree" is AlgSegmentTree.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "":
		return AlgAuto, nil
	case "tree":
		return AlgSegmentTree, nil
	}
	for a := AlgAuto; a <= AlgEuclidean; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return AlgAuto, fmt.Errorf("unknown algorithm %q", name)
}

// Options configures a search.
type Options struct {
	// Algorithm is the segmentation strategy (default AlgAuto).
	Algorithm Algorithm
	// K is how many top visualizations to return (default 10).
	K int
	// Stride is the break-point candidate granularity in points: 1
	// considers every adjacent point boundary (the paper's b defaults to
	// one bin per discernible pixel; stride generalizes binning width).
	Stride int
	// MinSegmentFrac is the minimum visual-segment width as a fraction of
	// the trendline (default 0.05). It plays the role of the paper's
	// binning width b tied to rendered pixels: a "trend" spanning under a
	// few percent of the chart is imperceptible noise, and without a floor
	// the optimal segmenter happily matches patterns against two-point
	// noise wiggles. Set a tiny value (e.g. 1e-9) to allow arbitrarily
	// narrow segments. When a chain has too many units for the floor, the
	// floor relaxes to fit.
	MinSegmentFrac float64
	// Pushdown enables the Section 5.4 push-down optimizations.
	Pushdown bool
	// Pruning enables the Section 6.3 collective pruning, made lossless: a
	// bound-first scan (or shape-index traversal) that skips candidates
	// whose sound upper bound trails the live top-k floor, plus deferred
	// exact verification. Effective with AlgSegmentTree / AlgAuto, for any
	// query.
	Pruning bool
	// Parallelism is the number of worker goroutines scoring
	// visualizations (default 0: auto, meaning GOMAXPROCS). All engines
	// honor it, the DTW/Euclidean distance baselines included.
	Parallelism int
	// UDPs holds user-defined patterns referenced by the query.
	UDPs *score.Registry
	// DisableAutoIndex keeps large pruned scans on the flat bound-first
	// path instead of building a throwaway corpus shape index per run (see
	// internal/shapeindex). Results are identical either way; the flag
	// exists for benchmarking the flat scan and for corpora where the
	// caller knows bound separation is poor.
	DisableAutoIndex bool

	// The fields below are filled by Compile, the only way options reach
	// evaluation, and are read-only after it. Compile's worklist walks every
	// node evaluation can reach, nested sub-queries included, so evaluation
	// reads them without a fallback.
	//
	// nestedPre holds nested sub-queries pre-normalized at Compile time,
	// keyed by sub-query root.
	nestedPre map[*shape.Node]shape.Normalized
	// iterInner holds, per ITERATOR segment node, the pre-built inner
	// segment node the sliding window evaluates (LOCATION reduced to the y
	// pins) — hoisted out of the per-range hot path.
	iterInner map[*shape.Node]*shape.Node
	// sketchQY holds, per sketch segment node, the query's y values —
	// query-static, hoisted out of evalSegment.
	sketchQY map[*shape.Node][]float64
	// chainMeta is the plan-wide alternative analysis (interned unit
	// signatures, hoisted pins, k-grouped order, bound groups) driving
	// shared-segmentation evaluation. A nil chainMeta selects the naive
	// per-alternative loop, the reference the property tests compare
	// shared evaluation against.
	chainMeta *chainMeta
	// pruneThresholdBias artificially inflates the stage-2 pruning
	// threshold. Test-only: it forces over-pruning so the deferred
	// verification stage's rescue path can be exercised deterministically;
	// zero in production. Losslessness must hold for any value.
	pruneThresholdBias float64
}

// DefaultOptions returns the system defaults.
func DefaultOptions() Options {
	return Options{
		Algorithm:      AlgAuto,
		K:              10,
		Stride:         1,
		MinSegmentFrac: 0.05,
		Pushdown:       true,
		Parallelism:    0, // auto: GOMAXPROCS workers
	}
}

func (o Options) normalized() *Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Stride < 1 {
		o.Stride = 1
	}
	if o.MinSegmentFrac <= 0 {
		o.MinSegmentFrac = 0.05
	}
	if o.UDPs == nil {
		o.UDPs = score.NewRegistry()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &o
}

// Result is one matched visualization.
type Result struct {
	// Z identifies the visualization (the z attribute value).
	Z string
	// Score is the final ShapeQuery score in [−1, 1].
	Score float64
	// Ranges holds the inclusive point range each chain unit matched, for
	// the best-scoring alternative. Empty for DTW/Euclidean rankings.
	Ranges [][2]int
	// BreakXs are the domain-x values of the unit boundaries.
	BreakXs []float64
	// Series is the matched trendline's raw data. It aliases the grouped
	// chart's storage, whose x values the other charts on the same x grid
	// share, and that storage may be the dataset table's own columns (see
	// dataset.Series): callers must not modify it.
	Series dataset.Series
}

// solver picks the runSolver for the configured algorithm.
func (o *Options) solver(norm shape.Normalized) (runSolver, error) {
	switch o.Algorithm {
	case AlgAuto, AlgSegmentTree:
		return treeRun, nil
	case AlgDP:
		return dpRun, nil
	case AlgGreedy:
		return greedyRun, nil
	case AlgExhaustive:
		return exhaustiveRun, nil
	default:
		return nil, fmt.Errorf("executor: no segmentation solver for algorithm %v", o.Algorithm)
	}
}

// evalViz scores one visualization in the worker's evaluation context:
// each alternative chain is segmented independently and the best
// alternative wins (OR distributes over per-alternative optimal
// segmentation). The winning assignment is copied out of the context's
// scratch — it outlives the next candidate.
//
// With a compiled plan (o.chainMeta non-nil) the alternatives are evaluated
// under shared-segmentation: unit scores memoize per candidate by interned
// signature, alternatives run in unit-count groups so each (viz, k) group
// shares one candidate grid / SegmentTree skeleton, and chain compilation
// reads hoisted pins. Every alternative still gets its own exact solve —
// only repeated sub-computations are shared — and ties between alternatives
// resolve to the earliest in declaration order, so the result is
// byte-identical to the naive per-alternative loop (the meta-nil path,
// pinned by TestSharedEvalMatchesNaive).
func evalViz(ec *evalCtx, v *Viz, norm shape.Normalized, o *Options, solve runSolver) (float64, [][2]int) {
	return evalVizShared(ec, v, norm, o, solve, true)
}

// evalVizShared is evalViz with explicit memo-reset control: the score/fit
// memos are bump-reset only when resetMemo is true. The pipeline resets on
// a candidate's first evaluated query only (batchRun.score), so later
// queries of the same candidate share every (signature, range) score and
// every range fit already computed — signature ids are batch-global, so
// shared entries are exact for every query. Only a chart too long for the
// memo keys evaluates without signatures, hence without either memo.
func evalVizShared(ec *evalCtx, v *Viz, norm shape.Normalized, o *Options, solve runSolver, resetMemo bool) (float64, [][2]int) {
	meta := o.chainMeta
	best := math.Inf(-1)
	var bestRanges [][2]int
	if meta == nil {
		for _, alt := range norm.Alternatives {
			res := solveChain(ec.compile(v, alt, o), solve)
			if res.score > best {
				best = res.score
				bestRanges = append(bestRanges[:0], res.ranges...)
			}
		}
		return best, bestRanges
	}
	keysOK := meta.memoUsable(v.N())
	if keysOK && resetMemo {
		ec.memo.reset()
		ec.fitMemo.reset()
	}
	bestAi := -1
	for _, ai := range meta.order {
		ce := ec.compileAlt(v, norm.Alternatives[ai], o, &meta.alts[ai])
		if !keysOK {
			ce.sigs = nil
		}
		res := solveChain(ce, solve)
		// Scoring order is grouped by unit count, so the naive loop's
		// first-wins tie rule becomes lowest-alternative-index-wins.
		if res.score > best || (res.score == best && bestAi >= 0 && ai < bestAi) {
			best = res.score
			bestAi = ai
			bestRanges = append(bestRanges[:0], res.ranges...)
		}
	}
	return best, bestRanges
}

func makeResult(v *Viz, sc float64, ranges [][2]int) Result {
	r := Result{Z: v.Series.Z, Score: sc, Ranges: ranges, Series: v.Series}
	if len(ranges) > 0 {
		r.BreakXs = make([]float64, 0, len(ranges)+1)
		r.BreakXs = append(r.BreakXs, v.Series.X[ranges[0][0]])
		for _, rg := range ranges {
			r.BreakXs = append(r.BreakXs, v.Series.X[rg[1]])
		}
	}
	return r
}

// filterSeriesWithData keeps series that have at least one point inside
// every pinned window (push-down (a), Section 5.4). Extraction emits X
// sorted ascending, so the common path binary-searches each window; series
// with unsorted X (hand-built inputs) fall back to a linear scan.
func filterSeriesWithData(series []dataset.Series, ranges [][2]float64) []dataset.Series {
	out := series[:0:0]
	for _, s := range series {
		sorted := sort.Float64sAreSorted(s.X)
		keep := true
		for _, r := range ranges {
			if !hasPointInRange(s.X, r, sorted) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, s)
		}
	}
	return out
}

// hasPointInRange reports whether any x lies inside the inclusive window.
func hasPointInRange(xs []float64, r [2]float64, sorted bool) bool {
	if sorted {
		i := sort.SearchFloat64s(xs, r[0])
		return i < len(xs) && xs[i] <= r[1]
	}
	for _, x := range xs {
		if x >= r[0] && x <= r[1] {
			return true
		}
	}
	return false
}

// xStep estimates the sampling interval of the data.
func xStep(series []dataset.Series) float64 {
	for _, s := range series {
		if s.Len() >= 2 {
			return (s.X[s.Len()-1] - s.X[0]) / float64(s.Len()-1)
		}
	}
	return 1
}

// renderReference synthesizes the piecewise-linear trendline a chain
// describes: each unit contributes a leg at its pattern's nominal angle,
// with width proportional to its CONCAT weight.
func renderReference(chain shape.Chain, length int) []float64 {
	if length < 2 {
		return make([]float64, length)
	}
	ys := make([]float64, length)
	dx := normXSpan / float64(length-1)
	var wsum float64
	for _, u := range chain.Units {
		wsum += u.Weight
	}
	if wsum <= 0 {
		wsum = 1
	}
	pos := 0
	var y float64
	for ui, u := range chain.Units {
		angle := nominalAngle(u.Node)
		slope := math.Tan(angle * math.Pi / 180)
		end := pos + int(u.Weight/wsum*float64(length))
		if ui == len(chain.Units)-1 || end > length {
			end = length
		}
		for ; pos < end; pos++ {
			ys[pos] = y
			y += slope * dx
		}
	}
	for ; pos < length; pos++ {
		ys[pos] = y
	}
	return ys
}

// nominalAngle maps a unit's pattern to a representative angle in degrees.
func nominalAngle(n *shape.Node) float64 {
	switch n.Kind {
	case shape.NodeSegment:
		switch n.Seg.Pat.Kind {
		case shape.PatUp:
			return 50
		case shape.PatDown:
			return -50
		case shape.PatSlope:
			return n.Seg.Pat.Slope
		default:
			return 0
		}
	case shape.NodeNot:
		return -nominalAngle(n.Children[0])
	default:
		if len(n.Children) > 0 {
			return nominalAngle(n.Children[0])
		}
		return 0
	}
}
