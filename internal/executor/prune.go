package executor

import (
	"math"

	"shapesearch/internal/score"
	"shapesearch/internal/shape"
)

// The collective pruning of Section 6.3 runs in the scoring pipeline
// (pipeline.go) as a bound-first scan plus deferred exact verification (the
// paper's stage-1 coarse sampling was measured redundant under the
// bound-first scan and deleted — the first K exactly scored candidates are
// the highest-bound ones, which seed the floor better than a coarse sample
// did and for free):
//
//   - Bounding runs inside every pipeline worker: soundUpperBound computes
//     a provable upper bound on the candidate's query score, the scoring
//     pass visits candidates in descending-bound order, and a candidate is
//     pruned when its bound falls below the live shared threshold (the
//     exact floor of the scores so far). Pruned candidates are never
//     discarded — the worker records them with their bounds in the result
//     slots.
//   - Deferred exact verification (batchRun.verify) re-scores, after the
//     main pass, every pruned candidate whose recorded bound reaches the
//     final top-k floor. A sound bound plus verification makes pruning
//     lossless: a candidate missing from the final top-k either scored
//     exactly below the floor, or carried a bound (hence an exact score)
//     provably below it.
//
// This file keeps the bound machinery itself, in two tiers.
//
// Tier 1, the cheap bound, runs for every candidate and every query. Unlike
// the earlier Table 7 mid-tree-level heuristic (whose gap a fixed 0.05
// safety margin papered over — and failed to: see TestPruningIsLossless's
// pinned luminosity case), it makes no whole-node assumption, so unit
// ranges that split SegmentTree nodes are covered by construction:
//
// For any contiguous point range, the least-squares slope is a convex
// combination of the adjacent-pair slopes inside it (telescoping the fit:
// slope = Σ_p T_p·Δy_p / Sxx with T_p = Σ_{q>p} (x_q − x̄) ≥ 0 and
// Σ_p T_p·Δx_p = Sxx). A range of at least m points additionally caps every
// pair's convex weight at maxSlopeWeight(m) — one noisy pair cannot
// dominate a wide fit — so the fitted slope of every range a solver may
// assign lies inside the capped-extreme interval of soundSlopeInterval.
// unitBounds maps that slope interval through the pattern scores (Table 7
// in interval form, score.BoundsInterval) and the operator composition of
// Property 5.1; constructs whose score is not slope-determined stay at the
// trivial [−1, 1].
//
// Tier 1 lets every unit take the steepest range on its own, while a real
// segmentation tiles the whole chart. Tier 2, the tiling bound, closes that
// gap on short charts: when a query's cheap bound reaches its live floor,
// batchRun.score computes tilingUpperBound, the best score over every
// tiling of the chart into each alternative's units, each unit at least
// the solver's width floor wide, and prunes the candidate without a
// treeRun if that trails the floor. The slot then records it as its bound,
// so verification rescues against the tighter bound. Soundness is
// containment: the SegmentTree's final segmentation — leaf-aligned breaks
// (every leaf at least the width floor wide) moved by refineBreaks (which
// keeps every unit at least the width floor wide) — is one of those
// tilings, and for bare patterns its exact score is the sum the DP adds up
// for it, bit for bit (same angles, same expressions, same order), so the
// DP's maximum is at least the exact score. Tier 2 applies only where that
// argument holds and pays (tilingApplies): every unit a bare pattern
// (chainMeta.bare; a location, modifier, sketch, operator or reference
// makes a unit's score more than a function of its range angle), no skip
// mask (the exact path scores a range over a skipped point −1, which the
// table does not know), and a chart no longer than tilingMaxPoints, the
// cost rule below.
//
// The DP reads a table of the chart's n(n−1)/2 range angles. A chart's
// first run that needs it fills the table in per-worker scratch; a chart
// searched again keeps it on the Viz from the second run that needs its
// angles on (countAngleRun), so a cached candidate set stops recomputing
// its atans per request while a set searched once keeps nothing. A kept
// table holds the scratch fill's angles bit for bit, so the containment
// argument above is untouched. The exact path reads the same angles:
// unitScore's bare-pattern branch takes its angle from the kept table, or
// from the tier's scratch fill in the run that made it, in place of a
// fitMemo probe. Its runs count toward keeping a table too, on charts of up
// to keptAnglesMaxPoints, past the tier's cap, and for queries the tier
// declines, so single-signature queries and 32-point charts stop refitting
// every range on every request.

// boundEps absorbs floating-point noise when comparing a bound against an
// exactly-scored floor: a candidate is only dismissed when its bound is
// below the floor by more than this, and verification re-scores candidates
// within it. This is float hygiene, not a tuning margin — the bound itself
// is sound.
const boundEps = 1e-9

// maxSlopeWeight bounds the convex weight any single adjacent-pair slope
// can carry in the least-squares slope of a contiguous range of at least m
// points, for a grid whose adjacent-gap ratio (max gap / min gap) is ratio.
//
// Uniform grid (ratio ≈ 1): the weight of pair p is T_p·Δx/Sxx with
// T_p = Σ_{q>p}(x_q − x̄); its maximum over p has the closed form
// ⌊m²/4⌋·d²/2 / (m(m²−1)d²/12) = 6⌊m²/4⌋/(m(m²−1)) — e.g. exactly 1/2 for
// m = 3 (the middle of a 3-point fit is shared by both pairs).
//
// Irregular grid: with dmin ≤ every gap ≤ dmax, T_p ≤ dmax·u(u+1)/2 where
// u ≥ m − (m−1)/(2·ratio) counts points above the mean (the mean sits at
// least (m−1)·dmin/2 from the left edge), and Sxx ≥ dmin²·m(m²−1)/12 (the
// pairwise-spread identity Sxx = ΣΣ(x_q−x_p)²/(2m) with every |x_q−x_p| ≥
// |q−p|·dmin). Both are conservative; the cap only ever errs upward, which
// loosens the bound but never unsounds it.
//
// Monotonicity invariant (the corpus index depends on it): the cap is
// nonincreasing in m at fixed ratio and nondecreasing in ratio at fixed m,
// so an envelope evaluated at its bucket's minimum width floor and maximum
// grid ratio receives a cap ≥ every member's and its slope interval
// contains theirs (see internal/shapeindex and envelopeUpperBound). This
// is why u uses the smooth (m−1)/(2·ratio) instead of the exact
// ⌈(m−1)/(2·ratio)⌉: the ceiled form is marginally tighter but not
// monotone in m (e.g. ratio 1.05: m=8 → 0.263, m=9 → 0.276), while the
// smooth form is provably monotone — 2α·m ≤ 3(α(m−1)+1) for the relevant
// α = 1 − 1/(2·ratio) ∈ (½, 1) — and still a sound upper bound (a larger
// u only loosens).
func maxSlopeWeight(m int, ratio float64) float64 {
	if m < 3 {
		return 1
	}
	fm := float64(m)
	var v float64
	if ratio <= 1+1e-9 {
		// The 1e-6 headroom covers sub-1e-9 gap wobble from float noise in
		// the normalized grid.
		v = 6 * math.Floor(fm*fm/4) / (fm * (fm*fm - 1)) * (1 + 1e-6)
	} else if math.IsInf(ratio, 1) || math.IsNaN(ratio) {
		return 1
	} else {
		u := fm - (fm-1)/(2*ratio)
		v = 6 * ratio * ratio * u * (u + 1) / (fm * (fm*fm - 1))
	}
	if !(v < 1) {
		return 1
	}
	return v
}

// soundSlopeInterval returns an interval provably containing the fitted
// slope of every valid contiguous range of at least m points: convex
// combinations of the chart's adjacent-pair slopes with per-pair weight at
// most maxSlopeWeight(m) are maximized (minimized) by stacking the cap on
// the largest (smallest) slopes.
func soundSlopeInterval(ps *pruneStats, m int) (sLo, sHi float64) {
	vmax := maxSlopeWeight(m, ps.ratio)
	return cappedExtreme(ps, vmax, false), cappedExtreme(ps, vmax, true)
}

// cappedExtreme stacks weight vmax on the largest (hi) or smallest (!hi)
// adjacent slopes until the unit budget runs out; the remainder lands on
// the next slope in line. When the budget outruns the stored extremes
// (fewer pairs than the cap needs, or a width floor beyond the memo's
// horizon), the leftover parks on the last stored extreme — an outward
// error that loosens the bound but keeps it sound.
func cappedExtreme(ps *pruneStats, vmax float64, hi bool) float64 {
	sel, prefix := ps.low, ps.lowPrefix
	if hi {
		sel, prefix = ps.high, ps.highPrefix
	}
	full := int(1 / vmax)
	if max := len(sel) - 1; full > max {
		full = max
	}
	rem := 1 - float64(full)*vmax
	return vmax*prefix[full] + rem*sel[full]
}

// resetBoundCaches invalidates the per-candidate bound caches: the slope
// interval per width floor, the unit bound per (signature, width floor),
// and — for pin-free chains — the whole chain bound per distinct bound
// group, so alternatives with provably identical bounds (same unit-count
// and (signature, weight) multiset; the bound is order-free within a fuzzy
// run) derive it once. The pipeline resets once per candidate (and once per
// envelope) and lets the caches compose across a batch's queries —
// signature and bound-group ids are batch-global, so the keys stay
// unambiguous.
func (ec *evalCtx) resetBoundCaches(meta *chainMeta) {
	ec.ubSpanKeys = ec.ubSpanKeys[:0]
	ec.ubSpanLo = ec.ubSpanLo[:0]
	ec.ubSpanHi = ec.ubSpanHi[:0]
	ec.ubUnitKeys = ec.ubUnitKeys[:0]
	ec.ubUnitHi = ec.ubUnitHi[:0]
	if meta != nil && meta.nBoundGroups > 0 {
		ec.ubChainUB = grow(&ec.ubChainUB, meta.nBoundGroups)
		set := grow(&ec.ubChainSet, meta.nBoundGroups)
		for i := range set {
			set[i] = false
		}
	}
}

// soundUpperBound returns a provable upper bound on the candidate's query
// score under the pipeline's solvers: per alternative, the chain's pinned
// anchors and fuzzy runs are reconstructed exactly as solveChain assigns
// them, each fuzzy run's minimum unit width feeds soundSlopeInterval, and
// per-unit bounds compose through unitBounds into the chain's weighted sum
// (weights sum to 1, so the chain bound is also ≥ the −1 of an infeasible
// segmentation). All state lives on the memoized Viz (pruneSlopeStats) and
// the worker's pooled evalCtx — the check allocates nothing in steady
// state. The caller owns the per-candidate cache lifecycle:
// resetBoundCaches must precede the candidate's first bound.
func soundUpperBound(ec *evalCtx, v *Viz, norm shape.Normalized, o *Options) float64 {
	ps := v.pruneSlopeStats()
	if ps.nPairs == 0 {
		return math.Inf(1) // no valid pair: nothing to bound, never prune
	}
	n := v.N()
	tolX := 1.5 * (v.Series.X[n-1] - v.Series.X[0]) / float64(n-1)
	// mayFail: evaluation paths that can force −1 below any slope-derived
	// minimum (skip-mask hits, duplicate-x degenerate fits). The upper
	// bound is unaffected; only NOT's use of the lower bound needs it.
	mayFail := v.Skipped != nil || math.IsInf(ps.ratio, 1)
	meta := o.chainMeta
	ub := math.Inf(-1)
	for ai, alt := range norm.Alternatives {
		var am *altMeta
		if meta != nil {
			am = &meta.alts[ai]
			if g := am.boundGroup; g >= 0 && ec.ubChainSet[g] {
				if c := ec.ubChainUB[g]; c > ub {
					ub = c
				}
				continue
			}
		}
		chainUB := chainUpperBound(ec, v, alt, o, ps, am, tolX, mayFail)
		if am != nil && am.boundGroup >= 0 {
			ec.ubChainSet[am.boundGroup] = true
			ec.ubChainUB[am.boundGroup] = chainUB
		}
		if chainUB > ub {
			ub = chainUB
		}
	}
	return ub
}

// chainUpperBound bounds one alternative, mirroring solveChain's anchor and
// fuzzy-run reconstruction. am, when non-nil, supplies hoisted pins and
// structural signature ids for the per-candidate caches.
func chainUpperBound(ec *evalCtx, v *Viz, alt shape.Chain, o *Options, ps *pruneStats, am *altMeta, tolX float64, mayFail bool) float64 {
	n := v.N()
	k := len(alt.Units)
	pinS := grow(&ec.ubPinS, k)
	pinE := grow(&ec.ubPinE, k)
	pinBad := grow(&ec.ubPinBad, k)
	for t, u := range alt.Units {
		pinS[t], pinE[t], pinBad[t] = -1, -1, false
		var xs, xe float64
		var hasS, hasE bool
		if am != nil {
			p := &am.pins[t]
			xs, hasS, xe, hasE = p.xs, p.hasS, p.xe, p.hasE
		} else {
			xs, hasS = u.PinnedStart()
			xe, hasE = u.PinnedEnd()
		}
		if hasS {
			if xs < v.Series.X[0]-tolX || xs > v.Series.X[n-1]+tolX {
				pinBad[t] = true
			} else {
				pinS[t] = v.indexOfX(xs)
			}
		}
		if hasE {
			if xe < v.Series.X[0]-tolX || xe > v.Series.X[n-1]+tolX {
				pinBad[t] = true
			} else {
				pinE[t] = v.indexAtOrBefore(xe)
			}
		}
		if pinS[t] >= 0 && pinE[t] >= 0 && pinE[t] <= pinS[t] {
			pinBad[t] = true
		}
	}
	// anchored mirrors compiledUnit.pinned(): both indices resolved,
	// even when the pin is erroneous — solveChain anchors those too.
	anchored := func(t int) bool { return pinS[t] >= 0 && pinE[t] >= 0 }
	var chainUB float64
	t := 0
	for t < k {
		if anchored(t) {
			var hi float64
			switch {
			case pinBad[t]:
				hi = score.WorstScore // unitScore is −1 on pin errors
			default:
				if s, ok := v.rangeSlope(pinS[t], pinE[t]); ok {
					_, hi = unitBounds(alt.Units[t].Node, s, s, mayFail)
				} else {
					_, hi = unitBounds(alt.Units[t].Node, math.Inf(-1), math.Inf(1), true)
				}
			}
			chainUB += alt.Units[t].Weight * hi
			t++
			continue
		}
		// Maximal fuzzy run [t, t2] and its window, as in solveChain.
		t2 := t
		for t2+1 < k && !anchored(t2+1) {
			t2++
		}
		lo := 0
		if t > 0 {
			lo = pinE[t-1]
		}
		hiIdx := n - 1
		if t2+1 < k {
			if pinBad[t2+1] {
				hiIdx = lo // solveChain forces the run infeasible
			} else {
				hiIdx = pinS[t2+1]
			}
		}
		kRun := t2 - t + 1
		if hiIdx-lo < kRun {
			for ; t <= t2; t++ {
				chainUB += alt.Units[t].Weight * score.WorstScore
			}
			continue
		}
		span := minSpanWidth(o, n, kRun, lo, hiIdx)
		sLo, sHi := ec.spanInterval(ps, span+1)
		for ; t <= t2; t++ {
			if pinBad[t] {
				// A half-pinned unit whose pin failed scores −1 on
				// every range.
				chainUB += alt.Units[t].Weight * score.WorstScore
				continue
			}
			bsig := -1
			if am != nil {
				bsig = am.bsigs[t]
			}
			chainUB += alt.Units[t].Weight * ec.unitHi(alt.Units[t].Node, bsig, span, sLo, sHi, mayFail)
		}
	}
	return chainUB
}

// spanInterval is soundSlopeInterval cached per candidate by width floor.
func (ec *evalCtx) spanInterval(ps *pruneStats, m int) (float64, float64) {
	for i, key := range ec.ubSpanKeys {
		if key == m {
			return ec.ubSpanLo[i], ec.ubSpanHi[i]
		}
	}
	sLo, sHi := soundSlopeInterval(ps, m)
	if len(ec.ubSpanKeys) < 64 {
		ec.ubSpanKeys = append(ec.ubSpanKeys, m)
		ec.ubSpanLo = append(ec.ubSpanLo, sLo)
		ec.ubSpanHi = append(ec.ubSpanHi, sHi)
	}
	return sLo, sHi
}

// unitHi is a fuzzy unit's upper bound cached per candidate by (structural
// signature, width floor): the floor determines (sLo, sHi) and mayFail is
// candidate-constant, so the key pins every input of unitBounds. bsig < 0
// computes directly (chains compiled without plan metadata).
func (ec *evalCtx) unitHi(nd *shape.Node, bsig, span int, sLo, sHi float64, mayFail bool) float64 {
	var key uint64
	if bsig >= 0 {
		key = uint64(bsig)<<32 | uint64(uint32(span))
		for i, k := range ec.ubUnitKeys {
			if k == key {
				return ec.ubUnitHi[i]
			}
		}
	}
	_, hi := unitBounds(nd, sLo, sHi, mayFail)
	if bsig >= 0 && len(ec.ubUnitKeys) < 256 {
		ec.ubUnitKeys = append(ec.ubUnitKeys, key)
		ec.ubUnitHi = append(ec.ubUnitHi, hi)
	}
	return hi
}

// unitBounds bounds a unit's score given that any range the unit may cover
// has a fitted slope inside [sLo, sHi]: score.BoundsInterval for simple
// pattern segments, Property 5.1 composition for operators, and the trivial
// [−1, 1] for constructs whose score is not slope-determined (quantifiers,
// iterators, sketches, UDPs, references). The lower bound exists for NOT
// composition (NOT's upper bound is the negated child lower bound) and is
// forced to −1 whenever an evaluation-failure path (skip mask, location
// violation, degenerate fit) could undercut the slope-derived minimum.
func unitBounds(n *shape.Node, sLo, sHi float64, mayFail bool) (float64, float64) {
	switch n.Kind {
	case shape.NodeSegment:
		seg := n.Seg
		if seg.Mod.Kind == shape.ModQuantifier || seg.Loc.HasIterator() ||
			len(seg.Sketch) > 0 || seg.Pat.Kind == shape.PatPosition ||
			seg.Pat.Kind == shape.PatUDP || seg.Pat.Kind == shape.PatNested {
			return score.WorstScore, score.BestScore
		}
		var lo, hi float64
		switch seg.Pat.Kind {
		case shape.PatUp, shape.PatDown, shape.PatFlat, shape.PatSlope:
			lo, hi = score.BoundsInterval(seg.Pat.Kind, seg.Mod.Kind, seg.Pat.Slope, sLo, sHi)
		case shape.PatAny, shape.PatNone:
			lo, hi = score.BestScore, score.BestScore
		case shape.PatEmpty:
			return score.WorstScore, score.WorstScore
		default:
			return score.WorstScore, score.BestScore
		}
		loc := seg.Loc
		if mayFail || loc.XS.Set || loc.XE.Set || loc.YS.Set || loc.YE.Set {
			lo = score.WorstScore
		}
		return lo, hi
	case shape.NodeAnd:
		lo, hi := score.BestScore, score.BestScore
		for _, c := range n.Children {
			clo, chi := unitBounds(c, sLo, sHi, mayFail)
			if clo < lo {
				lo = clo
			}
			if chi < hi {
				hi = chi
			}
		}
		return lo, hi
	case shape.NodeOr:
		lo, hi := score.WorstScore, score.WorstScore
		for _, c := range n.Children {
			clo, chi := unitBounds(c, sLo, sHi, mayFail)
			if clo > lo {
				lo = clo
			}
			if chi > hi {
				hi = chi
			}
		}
		return lo, hi
	case shape.NodeNot:
		clo, chi := unitBounds(n.Children[0], sLo, sHi, mayFail)
		return -chi, -clo
	default:
		return score.WorstScore, score.BestScore
	}
}

// tilingMaxPoints is the longest chart the tiling bound runs on. The bound
// costs O(n²) for the range-angle table plus O(k·n²) for the DP, while the
// SegmentTree it may save grows about linearly in n, so the bound only
// pays on short charts. On 12-point stock charts it spares the exact
// evaluation of 74–90% of the candidates that reach it (nine bare queries
// over gen.Stocks(300, 12) score 25–54 candidates instead of 168–260), so
// it saves work while it costs at most about half an exact evaluation:
// the cap is the longest chart where it does.
// BenchmarkTilingBound (random walks, one worker, "u ; d" to a 6-unit
// chain; median of 3 runs on a 2-vCPU Intel Xeon VM) measured the bound at
// 0.21–0.30 of evalViz at 12 points, 0.37–0.42 at 16, 0.45–0.50 at 20,
// 0.50–0.64 at 24, 0.62–0.87 at 32 and 1.6–3.4 past 40, where the tree's
// width floor widens its leaves. That is the cost on a chart's first run,
// table included. A chart searched again keeps its table (countAngleRun,
// up to keptAnglesMaxPoints) and pays only the DP, which would let the cap
// grow for reused charts; it stays at 20, the rule measured on a first
// use.
const tilingMaxPoints = 20

// keptAnglesMaxPoints is the longest chart that keeps its range-angle
// table. The memory rule: a table is n(n−1)/2 float64s, 3,968 B at 32
// points, about 3× the ≈1.2 KB a 32-point chart on a shared x grid holds
// (its Viz, y-side sums and raw y), the ratio growing linearly in n. A
// corpus searched repeatedly without pruning keeps a table on every chart:
// ~40 MB for 10,000 charts of 32 points, beside ~12 MB of charts. The cap
// stays at 32, the chart length of the corpus workload where keeping
// tables was measured to pay.
const keptAnglesMaxPoints = 32

// tilingApplies reports whether the tiling bound covers query o on v: every
// unit of o is a bare pattern, no point of v is skipped, and v is short
// enough for the bound to cost less than the exact evaluation it may save.
func tilingApplies(v *Viz, o *Options) bool {
	return o.chainMeta != nil && o.chainMeta.bare && v.Skipped == nil && v.N() <= tilingMaxPoints
}

// anglesApply reports whether query o's exact evaluation of v reads v's
// range angles, so that the run counts toward v keeping a table: o has a
// bare-pattern unit, no point of v is skipped, and v has at most
// keptAnglesMaxPoints points. Wherever tilingApplies holds, so does this.
func anglesApply(v *Viz, o *Options) bool {
	return o.chainMeta != nil && o.chainMeta.fast && v.Skipped == nil && v.N() <= keptAnglesMaxPoints
}

// countAngleRun counts one run that needs v's range angles, for the tiling
// tier or the exact path, until v keeps a table. The per-candidate step
// calls it at most once per candidate and run, for a chart anglesApply
// accepts. The first such run keeps nothing, so a candidate set searched
// once costs no memory. The second builds a fresh table and publishes it
// on v, and every later run reads that table without computing an atan:
// the gate is an observed reuse, counted across every candidate set that
// shares v through a VizPool. Runs racing to publish build equal
// tables, and whichever lands first stays.
func (v *Viz) countAngleRun() {
	if v.angles.Load() != nil || v.angleRuns.Add(1) < 2 {
		return
	}
	n := v.N()
	kept := make([]float64, n*(n-1)/2)
	writeRangeAngles(v, kept)
	v.angles.CompareAndSwap(nil, &kept)
}

// loadRangeAngles readies v's range angles for tilingUpperBound: the table
// v keeps, or else a fill of ec's scratch (fillRangeAngles). It counts no
// run; the per-candidate step counts first, so a run that makes v keep a
// table reads that table here.
func (ec *evalCtx) loadRangeAngles(v *Viz) {
	if t := v.keptRangeAngles(); t != nil {
		ec.tile, ec.tileViz = t, v
		return
	}
	ec.fillRangeAngles(v)
}

// fillRangeAngles writes v's range angles into ec's scratch table, the
// one tilingUpperBound then reads, and which the exact path reads in
// place of fitMemo while ec holds it (rangeAngles).
func (ec *evalCtx) fillRangeAngles(v *Viz) {
	n := v.N()
	ec.tile = grow(&ec.tileAngle, n*(n-1)/2)
	ec.tileViz = v
	writeRangeAngles(v, ec.tile)
}

// rangeAngles returns v's range angles where v or ec holds them, the table
// v keeps or ec's scratch fill for v, and nil otherwise.
func (ec *evalCtx) rangeAngles(v *Viz) []float64 {
	if t := v.keptRangeAngles(); t != nil {
		return t
	}
	if ec.tileViz == v {
		return ec.tile
	}
	return nil
}

// rangeIndex is the position of range [i, j], i < j, in a range-angle
// table: tables are packed by end point, so the ranges ending at j form
// one contiguous row from rangeIndex(0, j).
func rangeIndex(i, j int) int { return j*(j-1)/2 + i }

// writeRangeAngles writes the fitted angle of every range [i, j], i < j,
// of v into angles at rangeIndex(i, j), one end point's row after the
// other. Each entry repeats segstat.Stats.Slope over v.rangeStats(i, j)
// operation for operation, its degenerate rule included, then math.Atan:
// it is the angle fitMemo.fit caches, bit for bit, and NaN for a
// degenerate fit.
func writeRangeAngles(v *Viz, angles []float64) {
	n := v.N()
	xp, yp := v.xsums, v.ysums
	at := 0
	for j := 1; j < n; j++ {
		xe, ye := &xp[j+1], &yp[j+1]
		for i := 0; i < j; i++ {
			xs, ys := &xp[i], &yp[i]
			cnt, sx := xe.N-xs.N, xe.SumX-xs.SumX
			a := math.NaN()
			if cnt >= 2 {
				den := cnt*(xe.SumXX-xs.SumXX) - sx*sx
				if den != 0 && !math.IsNaN(den) {
					sl := (cnt*(ye.SumXY-ys.SumXY) - sx*(ye.SumY-ys.SumY)) / den
					if !math.IsNaN(sl) && !math.IsInf(sl, 0) {
						a = math.Atan(sl)
					}
				}
			}
			angles[at] = a
			at++
		}
	}
}

// tilingUpperBound is the second bound tier, for a query and chart
// tilingApplies accepts, read from the range angles ec holds for v
// (loadRangeAngles or fillRangeAngles). Per alternative it is the best
// Σ w_t·f_t over every tiling of [0, n−1] into the chain's k units, each at
// least the solver's width floor wide, where f_t is the unit's score of its
// range angle (−1 for a degenerate fit, as in unitScore). The sum runs in
// unit order from 0, as scoreRanges' does, so on the tiling the SegmentTree
// returns it equals the exact score bit for bit. The bound is the max over
// alternatives and never below the −1 an infeasible segmentation scores.
func tilingUpperBound(ec *evalCtx, v *Viz, norm shape.Normalized, o *Options) float64 {
	meta := o.chainMeta
	n := v.N()
	rows := grow(&ec.tileRows, 2*n)
	prev, cur := rows[:n], rows[n:]
	ub := score.WorstScore
	for ai, alt := range norm.Alternatives {
		k := len(alt.Units)
		if n-1 < k {
			continue // no tiling: the exact path scores −1
		}
		span := minSpanWidth(o, n, k, 0, n-1)
		// prev[q] is the best sum of units [0, t) over [0, q]; the first
		// unit starts at 0, each unit ends where the next starts, and the
		// last ends at n−1.
		prev[0] = 0
		for t, u := range alt.Units {
			sig := meta.alts[ai].bsigs[t]
			fk, target, w := meta.sigFast[sig], meta.sigFastTarget[sig], u.Weight
			pLo, pHi := (t+1)*span, n-1-(k-1-t)*span
			if t == k-1 {
				pLo = n - 1
			}
			for p := pLo; p <= pHi; p++ {
				row := ec.tile[rangeIndex(0, p):rangeIndex(0, p+1)] // ranges [q, p]
				qLo, qHi := t*span, p-span
				if t == 0 {
					qHi = 0
				}
				best := math.Inf(-1)
				for q := qLo; q <= qHi; q++ {
					// unitScore's bare-pattern scores, unwrapped as there.
					a, f := row[q], score.WorstScore
					switch {
					case math.IsNaN(a):
					case fk == shape.PatUp:
						f = 2 * a / math.Pi
					case fk == shape.PatDown:
						f = -(2 * a / math.Pi)
					default:
						f = score.ForKindAngle(fk, a, target)
					}
					if s := prev[q] + w*f; s > best {
						best = s
					}
				}
				cur[p] = best
			}
			prev, cur = cur, prev
		}
		if prev[n-1] > ub {
			ub = prev[n-1]
		}
	}
	return ub
}
