package executor

import (
	"math"

	"shapesearch/internal/score"
	"shapesearch/internal/shape"
)

// chainEval evaluates one normalized chain (a weighted CONCAT sequence of
// units) against one visualization. Engines (DP, SegmentTree, greedy,
// exhaustive) decide which point range each unit covers; chainEval scores a
// unit over a range, and combines unit scores into the chain score.
type chainEval struct {
	// ctx owns every scratch buffer the evaluation reuses; non-nil for any
	// chainEval built through compile/compileChain.
	ctx   *evalCtx
	viz   *Viz
	chain shape.Chain
	units []compiledUnit
	opts  *Options
	// skippedPrefix[i] counts skipped points before index i; nil when the
	// GROUP operator summarized everything.
	skippedPrefix []int
	// refSlopes holds each unit's fitted slope once a segmentation is
	// chosen; POSITION references read it during the re-scoring pass.
	// nil during the search pass (references provisionally score 1).
	refSlopes []float64
	// sigs holds each unit's interned signature id for the per-candidate
	// unit-score memo; nil disables memoization (chains compiled without
	// plan metadata, nested sub-queries, units containing POSITION
	// references carry −1 individually). See Options.chainMeta.
	sigs []int
	// angles holds the viz's range angles when the viz keeps a table
	// (countAngleRun) or the context holds a tiling-tier fill for it
	// (evalCtx.rangeAngles); nil otherwise, and always under a skip mask.
	// Bare-pattern units read their range angle from it instead of
	// probing fitMemo.
	angles []float64
	// tolX and tolY are the location-satisfaction tolerances.
	tolX, tolY float64
	// ampUnit is one standard deviation of the normalized y values (1.0
	// under z-normalization); quantifier occurrences must move at least a
	// quarter of it to count as a perceptible rise or fall.
	ampUnit float64
}

type compiledUnit struct {
	unit shape.Unit
	// pinStart and pinEnd are pinned boundaries as point indices; −1 when
	// the side is free. pinErr marks pins that fall outside the data.
	pinStart, pinEnd int
	pinErr           bool
}

func (u *compiledUnit) pinned() bool { return u.pinStart >= 0 && u.pinEnd >= 0 }

// compileChain prepares a chain for evaluation against a visualization in a
// fresh evaluation context. The pipeline workers call (*evalCtx).compile
// instead, which reuses one context's buffers across candidates.
func compileChain(v *Viz, chain shape.Chain, opts *Options) *chainEval {
	return newEvalCtx().compile(v, chain, opts)
}

// compile prepares a chain for evaluation against a visualization, reusing
// the context's chainEval and unit buffer. Viz-derived quantities (y range,
// amplitude unit, skipped-point prefix) come memoized from the Viz; UDP
// resolution, nested sub-query normalization, and iterator/sketch hoisting
// already happened once at plan compile time, so nothing here can fail.
func (ec *evalCtx) compile(v *Viz, chain shape.Chain, opts *Options) *chainEval {
	return ec.compileAlt(v, chain, opts, nil)
}

// compileAlt is compile with the alternative's plan-compiled metadata: the
// pinned x endpoints hoisted out of the per-candidate path (no per-unit
// tree walks), the signature ids that key the memos, and the viz's range
// angles where the viz or the context holds them. A nil altMeta — the
// naive loop, and nested sub-query chains — falls back to walking the
// units, with memoization off.
func (ec *evalCtx) compileAlt(v *Viz, chain shape.Chain, opts *Options, am *altMeta) *chainEval {
	ce := &ec.ce
	*ce = chainEval{ctx: ec, viz: v, chain: chain, opts: opts}
	n := v.N()
	ce.skippedPrefix = v.skipPrefix()
	span := v.Series.X[n-1] - v.Series.X[0]
	ce.tolX = 1.5 * span / float64(n-1)
	lo, hi := v.yRange()
	ce.tolY = 0.1*(hi-lo) + 1e-9
	ce.ampUnit = v.ampUnit()
	if am != nil {
		ce.sigs = am.sigs
		if ce.skippedPrefix == nil {
			ce.angles = ec.rangeAngles(v)
		}
	}
	ec.units = ec.units[:0]
	for t, u := range chain.Units {
		cu := compiledUnit{pinStart: -1, pinEnd: -1}
		cu.unit = u
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
			if xs < v.Series.X[0]-ce.tolX || xs > v.Series.X[n-1]+ce.tolX {
				cu.pinErr = true
			} else {
				cu.pinStart = v.indexOfX(xs)
			}
		}
		if hasE {
			if xe < v.Series.X[0]-ce.tolX || xe > v.Series.X[n-1]+ce.tolX {
				cu.pinErr = true
			} else {
				cu.pinEnd = v.indexAtOrBefore(xe)
			}
		}
		if cu.pinStart >= 0 && cu.pinEnd >= 0 && cu.pinEnd <= cu.pinStart {
			cu.pinErr = true
		}
		ec.units = append(ec.units, cu)
	}
	ce.units = ec.units
	return ce
}

// anySkipped reports whether inclusive point range [i, j] touches a point
// the GROUP operator did not summarize.
func (ce *chainEval) anySkipped(i, j int) bool {
	if ce.skippedPrefix == nil {
		return false
	}
	return ce.skippedPrefix[j+1]-ce.skippedPrefix[i] > 0
}

// unitScore scores unit t over the inclusive point range [i, j].
//
// For units carrying a signature id the result is memoized per candidate on
// the context's scoreMemo when the plan's memoOn says some signature recurs:
// a unit's score is a pure function of its node structure and the range
// (pins, tolerances and the skip mask all derive from the same viz), so
// alternatives sharing a unit — or one chain using the same pattern twice —
// compute each (signature, range) score once. Units containing POSITION
// references are position-dependent and carry signature −1 (never
// memoized); refSlopes-bound re-scoring is therefore also safe to memoize,
// since non-POSITION scores ignore refSlopes.
func (ce *chainEval) unitScore(t, i, j int) float64 {
	if j <= i || i < 0 || j >= ce.viz.N() {
		return score.WorstScore
	}
	sig := -1
	if ce.sigs != nil {
		sig = ce.sigs[t]
	}
	if sig < 0 {
		return ce.unitScoreSlow(t, i, j)
	}
	// Bare-pattern units score straight off the range angle, memoOn or
	// not: one read of the viz's range-angle table, or else one probe on
	// the fit memo (shared across signatures — u and d over one range use
	// the same fit and atan), and no per-signature score memo traffic. Both
	// hold the same angle bit for bit, NaN for a degenerate fit. Bare
	// patterns cannot carry pins, so only the skip mask forces the general
	// path.
	// The up/down/flat expressions are score.ForKindAngle's, unwrapped
	// because that function exceeds the inlining budget and this is the
	// kernel's hottest loop; they MUST stay bit-for-bit in lockstep with
	// ForKindAngle or shared and naive evaluation diverge
	// (TestSharedEvalMatchesNaive pins this).
	meta := ce.opts.chainMeta
	if fk := meta.sigFast[sig]; fk != shape.PatNone && ce.skippedPrefix == nil {
		var angle float64
		if ce.angles != nil {
			angle = ce.angles[rangeIndex(i, j)]
		} else {
			_, angle, _ = ce.ctx.fitMemo.fit(ce.viz, i, j)
		}
		if math.IsNaN(angle) {
			return score.WorstScore
		}
		switch fk {
		case shape.PatUp:
			return 2 * angle / math.Pi
		case shape.PatDown:
			return -(2 * angle / math.Pi)
		case shape.PatFlat:
			return 1 - math.Abs(4*angle/math.Pi)
		case shape.PatAny:
			return score.BestScore
		case shape.PatEmpty:
			return score.WorstScore
		default: // PatSlope
			return score.ForKindAngle(fk, angle, meta.sigFastTarget[sig])
		}
	}
	if !meta.memoOn {
		return ce.unitScoreSlow(t, i, j)
	}
	key := uint64(sig)<<48 | uint64(i)<<24 | uint64(j)
	v, slot, ok := ce.ctx.memo.getSlot(key)
	if ok {
		return v
	}
	s := ce.unitScoreSlow(t, i, j)
	ce.ctx.memo.putSlot(slot, key, s)
	return s
}

func (ce *chainEval) unitScoreSlow(t, i, j int) float64 {
	cu := &ce.units[t]
	if cu.pinErr {
		return score.WorstScore
	}
	if ce.anySkipped(i, j) {
		return score.WorstScore
	}
	return ce.evalNode(cu.unit.Node, t, i, j)
}

func (ce *chainEval) evalNode(n *shape.Node, t, i, j int) float64 {
	switch n.Kind {
	case shape.NodeSegment:
		return ce.evalSegment(n, t, i, j)
	case shape.NodeAnd:
		s := score.BestScore
		for _, c := range n.Children {
			if v := ce.evalNode(c, t, i, j); v < s {
				s = v
			}
		}
		return s
	case shape.NodeOr:
		s := score.WorstScore
		for _, c := range n.Children {
			if v := ce.evalNode(c, t, i, j); v > s {
				s = v
			}
		}
		return s
	case shape.NodeNot:
		return -ce.evalNode(n.Children[0], t, i, j)
	default:
		return score.WorstScore
	}
}

// evalSegment scores one ShapeSegment over [i, j] (Section 5.2): the
// LOCATION/MODIFIER satisfaction part first (worst score on violation),
// then the PATTERN similarity part.
func (ce *chainEval) evalSegment(n *shape.Node, t, i, j int) float64 {
	seg := n.Seg
	v := ce.viz

	// ITERATOR: scan fixed-width windows inside [i, j] and keep the best.
	if seg.Loc.HasIterator() {
		return ce.evalIterator(n, t, i, j)
	}

	// LOCATION satisfaction. Pinned x endpoints must coincide with the
	// assigned range (engines assign pinned units their exact ranges; the
	// check also serves the exhaustive engine, which tries everything).
	if c := seg.Loc.XS; c.Set && !c.Iter {
		if math.Abs(v.Series.X[i]-c.Value) > ce.tolX {
			return score.WorstScore
		}
	}
	if c := seg.Loc.XE; c.Set && !c.Iter {
		if math.Abs(v.Series.X[j]-c.Value) > ce.tolX {
			return score.WorstScore
		}
	}
	hasYPins := seg.Loc.YS.Set || seg.Loc.YE.Set
	if seg.Loc.YS.Set && math.Abs(v.Series.Y[i]-seg.Loc.YS.Value) > ce.tolY {
		return score.WorstScore
	}
	if seg.Loc.YE.Set && math.Abs(v.Series.Y[j]-seg.Loc.YE.Value) > ce.tolY {
		return score.WorstScore
	}

	// PATTERN similarity. Multiple facets (pattern, sketch, y-anchor line)
	// combine conservatively with min — all must hold.
	best := math.Inf(1)
	consider := func(s float64) {
		if s < best {
			best = s
		}
	}
	if seg.Pat.Kind != shape.PatNone {
		consider(ce.evalPattern(n, t, i, j))
	}
	if len(seg.Sketch) > 0 {
		// The query-y values are query-static; Compile hoists them per
		// segment node.
		consider(ce.opts.SketchConfig.SketchL2(ce.opts.sketchQY[n], v.Series.Y[i:j+1]))
	}
	if seg.Pat.Kind == shape.PatNone && hasYPins {
		// Anchor-line similarity: how closely the trend follows the line
		// from (x.s, y.s) to (x.e, y.e). y is unnormalized here because
		// queries with y constraints disable z-normalization.
		dy := seg.Loc.YE.Value - seg.Loc.YS.Value
		dx := v.NX[j] - v.NX[i]
		if dx <= 0 {
			return score.WorstScore
		}
		slope, ok := v.rangeSlope(i, j)
		if !ok {
			return score.WorstScore
		}
		target := math.Atan2(dy, dx) * 180 / math.Pi
		consider(score.Theta(slope, target))
	}
	if math.IsInf(best, 1) {
		// Location-only segment: satisfaction already passed.
		return score.BestScore
	}
	return best
}

// evalIterator implements the ITERATOR sub-primitive: [x.s=., x.e=.+w, ...]
// slides a window of domain-width w across [i, j], scoring the rest of the
// segment over each window and keeping the maximum.
func (ce *chainEval) evalIterator(n *shape.Node, t, i, j int) float64 {
	seg := n.Seg
	v := ce.viz
	w := seg.Loc.XE.IterOffset
	// Compile hoists the iterator's inner segment node (LOCATION reduced to
	// the y pins) once per plan.
	innerNode := ce.opts.iterInner[n]
	best := score.WorstScore
	for s := i; s < j; s++ {
		endX := v.Series.X[s] + w
		if endX > v.Series.X[j]+ce.tolX {
			break
		}
		e := v.indexAtOrBefore(endX)
		if e > j {
			e = j
		}
		if e <= s {
			continue
		}
		if sc := ce.evalSegment(innerNode, t, s, e); sc > best {
			best = sc
		}
	}
	return best
}

// evalPattern scores the PATTERN primitive of a segment over [i, j].
func (ce *chainEval) evalPattern(n *shape.Node, t, i, j int) float64 {
	seg := n.Seg
	v := ce.viz
	switch seg.Pat.Kind {
	case shape.PatUp, shape.PatDown, shape.PatFlat, shape.PatSlope, shape.PatAny, shape.PatEmpty:
		if seg.Mod.Kind == shape.ModQuantifier {
			return ce.evalQuantifier(seg, i, j)
		}
		if ce.sigs != nil {
			// Shared evaluation: one least-squares fit and one atan per
			// range per candidate, shared across the patterns scored over
			// it (ForKindAngle is bit-identical to the slope forms).
			slope, angle, ok := ce.ctx.fitMemo.fit(v, i, j)
			if !ok {
				return score.WorstScore
			}
			switch seg.Mod.Kind {
			case shape.ModMore, shape.ModMuchMore, shape.ModLess, shape.ModMuchLess:
				base := func(s float64) float64 { return score.ForKind(seg.Pat.Kind, s, seg.Pat.Slope) }
				return score.Modified(seg.Mod.Kind, base, slope)
			default:
				return score.ForKindAngle(seg.Pat.Kind, angle, seg.Pat.Slope)
			}
		}
		slope, ok := v.rangeSlope(i, j)
		if !ok {
			return score.WorstScore
		}
		base := func(s float64) float64 { return score.ForKind(seg.Pat.Kind, s, seg.Pat.Slope) }
		switch seg.Mod.Kind {
		case shape.ModMore, shape.ModMuchMore, shape.ModLess, shape.ModMuchLess:
			return score.Modified(seg.Mod.Kind, base, slope)
		default:
			return base(slope)
		}
	case shape.PatPosition:
		slope, ok := v.rangeSlope(i, j)
		if !ok {
			return score.WorstScore
		}
		ref := ce.resolveRef(seg.Pat.Ref, t)
		if ref < 0 || ref >= len(ce.units) || ref == t {
			return score.WorstScore
		}
		if ce.refSlopes == nil {
			// Search pass: the referenced unit's slope is unknown until a
			// segmentation is chosen; provisionally a perfect match. The
			// final segmentation is re-scored exactly (see scoreRanges).
			return score.BestScore
		}
		return score.PositionScore(seg.Mod, slope, ce.refSlopes[ref])
	case shape.PatUDP:
		fn, ok := ce.opts.UDPs.Lookup(seg.Pat.Name)
		if !ok {
			return score.WorstScore
		}
		return score.Clamp(fn(v.Series.X[i:j+1], v.Series.Y[i:j+1]))
	case shape.PatNested:
		// Sub-queries were normalized once at Compile.
		return ce.evalNested(ce.opts.nestedPre[seg.Pat.Sub], i, j)
	default:
		return score.WorstScore
	}
}

// resolveRef maps a POSITION reference to a unit index.
func (ce *chainEval) resolveRef(r shape.PosRef, t int) int {
	switch r.Kind {
	case shape.RefPrev:
		return t - 1
	case shape.RefNext:
		return t + 1
	default:
		return r.Index
	}
}

// evalQuantifier scores a quantified pattern over [i, j]: occurrences are
// maximal runs of adjacent point pairs where the pattern scores above the
// threshold, each run scored by its merged fit (Section 5.2 "scoring
// quantifiers"). Counting runs rather than pairs makes one sustained rise
// one occurrence, however many points it spans. Runs narrower than the
// perceptibility floor (Options.MinSegmentFrac) do not count as
// occurrences — a two-point noise wiggle is not a "rise".
func (ce *chainEval) evalQuantifier(seg *shape.Segment, i, j int) float64 {
	v := ce.viz
	ctx := ce.ctx
	pairScores := grow(&ctx.pairScores, j-i)
	for k := i; k < j; k++ {
		slope, ok := v.rangeSlope(k, k+1)
		if !ok {
			pairScores[k-i] = score.WorstScore
			continue
		}
		pairScores[k-i] = score.ForKind(seg.Pat.Kind, slope, seg.Pat.Slope)
	}
	threshold := ce.opts.QuantifierThreshold
	minRun := int(ce.opts.MinSegmentFrac * float64(v.N()-1))
	if minRun < 1 {
		minRun = 1
	}
	ctx.runsBuf = score.PositiveRunsInto(ctx.runsBuf[:0], pairScores, threshold)
	runs := ctx.runsBuf
	// Directional occurrences must also move perceptibly: a run that rises
	// by a small fraction of the chart's y spread is noise, not a "rise",
	// no matter how steep its fit.
	minAmp := 0.0
	if seg.Pat.Kind == shape.PatUp || seg.Pat.Kind == shape.PatDown {
		minAmp = 0.25 * ce.ampUnit
	}
	runScores := ctx.runScores[:0]
	for _, run := range runs {
		if run[1]-run[0] < minRun {
			continue
		}
		if minAmp > 0 && math.Abs(v.NY[i+run[1]]-v.NY[i+run[0]]) < minAmp {
			continue
		}
		slope, ok := v.rangeSlope(i+run[0], i+run[1])
		if !ok {
			runScores = append(runScores, score.WorstScore)
			continue
		}
		runScores = append(runScores, score.ForKind(seg.Pat.Kind, slope, seg.Pat.Slope))
	}
	ctx.runScores = runScores
	return score.Quantifier(seg.Mod, runScores, threshold)
}

// evalNested scores a nested sub-query pattern over [i, j] by segmenting
// the range with a coarse dynamic program per alternative and returning the
// best alternative's score.
func (ce *chainEval) evalNested(norm shape.Normalized, i, j int) float64 {
	// A child context keeps the sub-query's DP scratch off the outer
	// solver's buffers (the outer DP/tree run is mid-flight on ce.ctx).
	child := ce.ctx.childCtx()
	best := score.WorstScore
	for _, alt := range norm.Alternatives {
		sub := child.compile(ce.viz, alt, ce.opts)
		sub.skippedPrefix = ce.skippedPrefix
		// Coarse candidate grid keeps nested evaluation near-linear.
		stride := (j - i) / 32
		if stride < 1 {
			stride = 1
		}
		res := dpRunStride(sub, 0, len(sub.units)-1, i, j, stride)
		if res.score > best {
			best = res.score
		}
	}
	return best
}

// scoreRanges computes the final chain score for a chosen assignment of
// inclusive point ranges to units, resolving POSITION references exactly:
// unit slopes are fitted first, then every unit is re-scored with
// references bound — a reference may name a later unit, so every slope
// must be known before any unit is scored.
func (ce *chainEval) scoreRanges(ranges [][2]int) float64 {
	slopes := grow(&ce.ctx.slopes, len(ce.units))
	for t := range ce.units {
		r := ranges[t]
		if r[1] <= r[0] {
			return score.WorstScore
		}
		s, ok := ce.viz.rangeSlope(r[0], r[1])
		if !ok {
			s = 0
		}
		slopes[t] = s
	}
	saved := ce.refSlopes
	ce.refSlopes = slopes
	defer func() { ce.refSlopes = saved }()
	var total float64
	for t, u := range ce.chain.Units {
		total += u.Weight * ce.unitScore(t, ranges[t][0], ranges[t][1])
	}
	return total
}
