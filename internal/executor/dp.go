package executor

import (
	"math"

	"shapesearch/internal/score"
	"shapesearch/internal/shape"
)

// runResult is a fuzzy solver's answer for a run of units tiling an
// inclusive point window: the weighted score sum over the run's units and
// the inclusive range assigned to each.
type runResult struct {
	score  float64
	ranges [][2]int
}

// segResult is a full-chain segmentation: the final chain score (with
// POSITION references resolved) and each unit's inclusive point range.
type segResult struct {
	score  float64
	ranges [][2]int
}

func infeasibleRun(t1, t2, lo int) runResult {
	k := t2 - t1 + 1
	r := runResult{score: float64(k) * score.WorstScore, ranges: make([][2]int, k)}
	for i := range r.ranges {
		r.ranges[i] = [2]int{lo, lo} // invalid on purpose: scores −1
	}
	return r
}

// infeasibleRunCtx is infeasibleRun writing into the context's shared
// ranges out-buffer (solveChain copies it before the next solver call).
func infeasibleRunCtx(ctx *evalCtx, t1, t2, lo int) runResult {
	k := t2 - t1 + 1
	ranges := grow(&ctx.rangesOut, k)
	for i := range ranges {
		ranges[i] = [2]int{lo, lo} // invalid on purpose: scores −1
	}
	return runResult{score: float64(k) * score.WorstScore, ranges: ranges}
}

// runSolver segments units [t1, t2] of the chain over inclusive point
// window [lo, hi].
type runSolver func(ce *chainEval, t1, t2, lo, hi int) runResult

// solveChain assigns point ranges to every unit of the chain: fully pinned
// units anchor at their pinned windows (gaps between pins are legal and
// simply ignored, mirroring Table 11's non-fuzzy queries), and each maximal
// run of fuzzy units tiles the window between its surrounding anchors using
// the given solver (Section 6, hybrid queries). The final score re-resolves
// POSITION references over the chosen segmentation.
func solveChain(ce *chainEval, solve runSolver) segResult {
	n := ce.viz.N()
	k := len(ce.units)
	// The assignment lives in context scratch; callers that keep it past
	// the next solveChain on this context (evalViz) copy the winner out.
	ranges := grow(&ce.ctx.chainRanges, k)

	// Push-down (b): eagerly test pinned up/down units first and bail out
	// before any fuzzy segmentation work if one fails (Section 5.4).
	if ce.opts.Pushdown {
		for t := range ce.units {
			cu := &ce.units[t]
			if !cu.pinned() || !eagerCheckable(cu) {
				continue
			}
			if ce.unitScore(t, cu.pinStart, cu.pinEnd) < 0 {
				for i := range ranges {
					ranges[i] = [2]int{0, 0}
				}
				return segResult{score: score.WorstScore, ranges: ranges}
			}
		}
	}

	t := 0
	for t < k {
		cu := &ce.units[t]
		if cu.pinned() {
			ranges[t] = [2]int{cu.pinStart, cu.pinEnd}
			t++
			continue
		}
		// Maximal fuzzy run [t, t2].
		t2 := t
		for t2+1 < k && !ce.units[t2+1].pinned() {
			t2++
		}
		lo := 0
		if t > 0 {
			lo = ranges[t-1][1]
		}
		hi := n - 1
		if t2+1 < k {
			next := &ce.units[t2+1]
			if next.pinErr {
				hi = lo // force infeasible
			} else {
				hi = next.pinStart
			}
		}
		if hi-lo < t2-t+1 {
			res := infeasibleRunCtx(ce.ctx, t, t2, lo)
			copy(ranges[t:], res.ranges)
		} else {
			res := solve(ce, t, t2, lo, hi)
			copy(ranges[t:], res.ranges)
		}
		t = t2 + 1
	}
	return segResult{score: ce.scoreRanges(ranges), ranges: ranges}
}

// eagerCheckable reports whether a pinned unit qualifies for the eager
// negative-score check: a single segment with an up or down pattern
// (Section 5.4 (b)).
func eagerCheckable(cu *compiledUnit) bool {
	n := cu.unit.Node
	if n.Kind != shape.NodeSegment {
		return false
	}
	k := n.Seg.Pat.Kind
	return k == shape.PatUp || k == shape.PatDown
}

// minSpan returns the minimum unit width in points for a run of k units
// over [lo, hi]: the configured MinSegmentFrac floor, relaxed when the run
// has too many units to honor it.
func minSpan(ce *chainEval, k, lo, hi int) int {
	return minSpanWidth(ce.opts, ce.viz.N(), k, lo, hi)
}

// minSpanWidth is minSpan without a chainEval: the sound pruning bound
// reconstructs the solver's width floor per fuzzy run from the same inputs,
// so the two must never diverge.
func minSpanWidth(o *Options, n, k, lo, hi int) int {
	m := int(o.MinSegmentFrac * float64(n-1))
	if m < 1 {
		m = 1
	}
	if k > 0 {
		if cap := (hi - lo) / k; m > cap {
			m = cap
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// candidates builds the break-point candidate list over [lo, hi] with the
// given stride, always including both endpoints.
func candidates(lo, hi, stride int) []int {
	return appendCandidates(make([]int, 0, (hi-lo)/max(stride, 1)+2), lo, hi, stride)
}

// appendCandidates is candidates into a reusable buffer.
func appendCandidates(out []int, lo, hi, stride int) []int {
	if stride < 1 {
		stride = 1
	}
	for c := lo; c < hi; c += stride {
		out = append(out, c)
	}
	return append(out, hi)
}

// dpRun is the optimal dynamic-programming segmenter of Section 6.1
// (Theorems 6.1–6.2): OPT(1,i,[1:j]) is built from optimal sub-segmentations
// over shorter prefixes. CONCAT's weighted mean is monotone in the weighted
// score sum for a fixed chain, so the DP maximizes the sum directly.
// Complexity O(k·m²) for m candidate break points — O(n²k) at full
// granularity, matching Theorem 6.2.
func dpRun(ce *chainEval, t1, t2, lo, hi int) runResult {
	return dpRunStride(ce, t1, t2, lo, hi, ce.opts.Stride)
}

func dpRunStride(ce *chainEval, t1, t2, lo, hi, stride int) runResult {
	ctx := ce.ctx
	// Cached per (lo, hi, stride): same-k alternatives and same-shape
	// candidates share the grid (see gridCache).
	cands := ctx.dpGrid.grid(lo, hi, stride)
	m := len(cands)
	k := t2 - t1 + 1
	if m < 2 {
		return infeasibleRunCtx(ctx, t1, t2, lo)
	}
	const neg = math.MaxFloat64
	// best[t*m+p]: max weighted sum placing units t1..t1+t-1 with the t-th
	// boundary at cands[p]. from[t*m+p] reconstructs the previous boundary.
	// Both tables are flat context scratch, resized not reallocated.
	size := (k + 1) * m
	best := grow(&ctx.dpBest, size)
	from := grow(&ctx.dpFrom, size)
	for i := 0; i < size; i++ {
		best[i] = -neg
		from[i] = -1
	}
	span := minSpan(ce, k, lo, hi)
	best[0] = 0 // best[0][0]
	for t := 1; t <= k; t++ {
		w := ce.chain.Units[t1+t-1].Weight
		row, prev := best[t*m:(t+1)*m], best[(t-1)*m:t*m]
		fr := from[t*m : (t+1)*m]
		for p := t; p < m; p++ {
			b := -neg
			arg := -1
			for q := t - 1; q < p; q++ {
				if prev[q] == -neg || cands[p]-cands[q] < span {
					continue
				}
				s := prev[q] + w*ce.unitScore(t1+t-1, cands[q], cands[p])
				if s > b {
					b, arg = s, q
				}
			}
			row[p] = b
			fr[p] = arg
		}
	}
	if best[k*m+m-1] == -neg {
		return infeasibleRunCtx(ctx, t1, t2, lo)
	}
	ranges := grow(&ctx.rangesOut, k)
	p := m - 1
	for t := k; t >= 1; t-- {
		q := from[t*m+p]
		ranges[t-1] = [2]int{cands[q], cands[p]}
		p = q
	}
	return runResult{score: best[k*m+m-1], ranges: ranges}
}
