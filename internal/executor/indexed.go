package executor

import (
	"context"
	"math"
	"runtime"

	"shapesearch/internal/shape"
	"shapesearch/internal/shapeindex"
)

// This file wires the corpus shape index (internal/shapeindex) into the
// scoring pipeline. The flat pruned scan (scan, pipeline.go) bounds every
// candidate once per run — O(N) even when the bound would let it skip the
// whole corpus. The index precomputes the bound's query-independent per-viz
// ingredients (Viz.boundSummary) once, merges them into bucket envelopes
// whose capped-extreme intervals dominate every member's, and lets the
// index driver (traverse, pipeline.go) descend buckets best-first: a
// subtree whose envelope bound trails the live top-k floor is skipped
// without ever touching its members.
//
// Soundness reduces to one property, envelopeUpperBound(env) ≥
// soundUpperBound(member) for every member beneath env (pinned by
// TestIndexedBoundDominatesSound), which in turn rests on three monotone
// pieces: the envelope's merged slope extremes dominate each member's
// elementwise (shapeindex merge rules), maxSlopeWeight is nonincreasing in
// the width floor and nondecreasing in the grid ratio (so the envelope's
// min-N/max-ratio evaluation receives the loosest cap), and
// score.BoundsInterval/unitBounds compose monotonically under interval
// widening. A skipped subtree therefore provably contains no top-k member:
// member score ≤ member bound ≤ envelope bound < floor at skip time ≤ final
// floor (the floor only rises). Everything visited flows through the
// drivers' shared step — exact scoring, deferred verification, (score desc,
// index asc) selection — so indexed results are byte-identical to the flat
// scan's (TestIndexedSearchMatchesScan).

// lazyIndexMinCorpus is the corpus size at which the flat driver builds a
// throwaway index and hands the run to the index driver: below it the
// build (summaries + sort) costs more than the skipped bounds save.
const lazyIndexMinCorpus = 4096

// VizIndex pairs grouped candidate visualizations with the corpus shape
// index built over their bound summaries. Positions in the vizs slice are
// the member ids the index reports — and the tie-break indices of the final
// ranking, so an indexed run ranks exactly like a scan over the same slice.
// Immutable after build; safe for concurrent searches.
type VizIndex struct {
	vizs []*Viz
	sums []*shapeindex.Summary
	ix   *shapeindex.Index
}

// BuildVizIndex is BuildVizIndexContext without cancellation. It stays
// because cmd/shapebench, a module of its own, calls it, and because the
// server's cache-fill build and its background rebuild must outlive any
// single request's ctx.
func BuildVizIndex(vizs []*Viz, shards int) *VizIndex {
	ix, _ := BuildVizIndexContext(context.Background(), vizs, shards)
	return ix
}

// BuildVizIndexContext precomputes each candidate's bound summary (in
// parallel — the per-viz slope-extreme scan is the dominant cost) and
// builds the sharded envelope index over them. Nil entries are tolerated
// and never surface in traversal. shards <= 0 picks GOMAXPROCS. ctx aborts
// the parallel summary pass between candidates and the build returns ctx's
// error with a nil index.
func BuildVizIndexContext(ctx context.Context, vizs []*Viz, shards int) (*VizIndex, error) {
	sums := make([]*shapeindex.Summary, len(vizs))
	workers := runtime.GOMAXPROCS(0)
	if err := forEachIndex(ctx, workers, len(vizs), func(_, i int) {
		if vizs[i] != nil {
			sums[i] = vizs[i].boundSummary()
		}
	}); err != nil {
		return nil, err
	}
	return &VizIndex{vizs: vizs, sums: sums, ix: shapeindex.Build(sums, shards)}, nil
}

// Update absorbs an append delta: vizs is the FULL new candidate slice
// (same positions as before, possibly longer at the end), and changed lists
// the positions whose Viz objects were replaced or appended. Only those
// positions are re-summarized and patched into the envelope hierarchy
// (shapeindex.Index.Update) — O(|changed| · leaf + dirtyLeaves · log N),
// never O(corpus). The receiver is left untouched, so searches running
// against the old index stay correct; and because indexed search results
// are byte-identical to a flat scan for ANY sound index, the patched
// index's different bucket composition cannot change what a query returns.
//
// Positions must be stable: the ids the index reports are ranking
// tie-breaks, so callers that insert mid-slice must rebuild instead.
func (x *VizIndex) Update(vizs []*Viz, changed []int) *VizIndex {
	sums := make([]*shapeindex.Summary, len(vizs))
	copy(sums, x.sums)
	ids := make([]int32, 0, len(changed))
	for _, i := range changed {
		if i < 0 || i >= len(vizs) {
			continue
		}
		if vizs[i] != nil {
			sums[i] = vizs[i].boundSummary()
		} else {
			sums[i] = nil
		}
		ids = append(ids, int32(i))
	}
	for i := len(x.sums); i < len(vizs); i++ {
		if sums[i] == nil && vizs[i] != nil {
			sums[i] = vizs[i].boundSummary()
		}
	}
	return &VizIndex{vizs: vizs, sums: sums, ix: x.ix.Update(sums, ids)}
}

// Staleness reports how many candidate positions Update has patched since
// the index was last fully built — the signal rebuild policies threshold
// on, since patched buckets lose clustering tightness over time.
func (x *VizIndex) Staleness() int { return x.ix.Staleness() }

// Len reports the number of indexed (non-nil) candidates.
func (x *VizIndex) Len() int { return x.ix.Len() }

// IndexStats reports how much of the corpus an indexed search touched.
type IndexStats struct {
	// Candidates is the indexed corpus size.
	Candidates int
	// Leaves counts leaf buckets whose envelope bound survived the floor.
	Leaves int
	// Visited counts members bounded individually (members of surviving
	// leaves); Candidates − Visited were skipped by envelope bounds alone.
	Visited int
	// Scored counts exact evaluations, including deferred verification.
	Scored int
}

// envelopeUpperBound bounds every member's query score from the bucket
// envelope alone: soundUpperBound's interval composition evaluated at the
// envelope's merged extremes, minimum point count and maximum grid ratio.
// resetBoundCaches must precede it per envelope; the caches compose across
// queries exactly as for members.
func envelopeUpperBound(ec *evalCtx, s *shapeindex.Summary, norm shape.Normalized, o *Options) float64 {
	if !s.Boundable() {
		return math.Inf(1) // some member is unboundable: never skip the bucket
	}
	ps := pruneStats{
		nPairs: s.NPairs,
		low:    s.Low, lowPrefix: s.LowPrefix,
		high: s.High, highPrefix: s.HighPrefix,
		ratio: s.Ratio,
	}
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
		chainUB := envChainUpperBound(ec, s, &ps, alt, o, am)
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

// envChainUpperBound bounds one alternative over a bucket envelope. Two
// regimes mirror chainUpperBound's member reconstruction without per-viz
// anchors:
//
//   - Pin-free chains (exactly the chains bound groups cover): the whole
//     chart is one fuzzy run. The width floor is evaluated at the
//     envelope's minimum point count — minSpanWidth is monotone
//     nondecreasing in n, so the envelope's floor is ≤ every feasible
//     member's, its capped-extreme interval ⊇ theirs, its unit bounds ≥
//     theirs. Members too short for the run (N < units+1) score Worst per
//     unit, which any unit upper bound dominates; the max(N, k+1) below
//     keeps the envelope on the feasible regime for everyone else.
//   - Chains with pins: anchors resolve per member (tolerance windows, pin
//     errors, anchored exact slopes), so the envelope falls back to the
//     widest slope statement it can make — the raw pair-slope extremes
//     [Low[0], High[0]], which contain every member's capped-extreme
//     interval and every anchored range's fitted slope (a convex
//     combination of valid pair slopes) — or (−Inf, +Inf) when MayFail
//     marks a member that may anchor a degenerate or skip-crossing range.
//     Member Worst outcomes (pin errors, infeasible runs) are dominated by
//     any unit upper bound. Span key 0 is never used by run bounds (real
//     spans are ≥ 1), so the pinned interval gets its own unitHi cache
//     slot.
func envChainUpperBound(ec *evalCtx, s *shapeindex.Summary, ps *pruneStats, alt shape.Chain, o *Options, am *altMeta) float64 {
	k := len(alt.Units)
	pinned := false
	if am != nil {
		pinned = am.boundGroup < 0
	} else {
		for _, u := range alt.Units {
			if _, has := u.PinnedStart(); has {
				pinned = true
				break
			}
			if _, has := u.PinnedEnd(); has {
				pinned = true
				break
			}
		}
	}
	var chainUB float64
	if pinned {
		sLo, sHi := ps.low[0], ps.high[0]
		if s.MayFail {
			sLo, sHi = math.Inf(-1), math.Inf(1)
		}
		for t, u := range alt.Units {
			bsig := -1
			if am != nil {
				bsig = am.bsigs[t]
			}
			chainUB += u.Weight * ec.unitHi(u.Node, bsig, 0, sLo, sHi, s.MayFail)
		}
		return chainUB
	}
	n := s.N
	if n < k+1 {
		n = k + 1
	}
	span := minSpanWidth(o, n, k, 0, n-1)
	sLo, sHi := ec.spanInterval(ps, span+1)
	for t, u := range alt.Units {
		bsig := -1
		if am != nil {
			bsig = am.bsigs[t]
		}
		chainUB += u.Weight * ec.unitHi(u.Node, bsig, span, sLo, sHi, s.MayFail)
	}
	return chainUB
}

// RunIndexedStatsContext ranks the indexed candidates against the compiled
// query, with cooperative cancellation (see Plan.SearchContext), and fills
// st (when non-nil) with traversal statistics. Engines without a sound
// bound to traverse by (distance baselines, pruning disabled) fall back to
// the flat pipeline over the indexed slice — same results, no skipping.
func (p *Plan) RunIndexedStatsContext(ctx context.Context, ix *VizIndex, st *IndexStats) ([]Result, error) {
	if !p.prune || p.distance {
		if st != nil {
			*st = IndexStats{Candidates: ix.Len(), Visited: ix.Len(), Scored: ix.Len()}
		}
		return p.RunGroupedContext(ctx, ix.vizs)
	}
	return first(traverse(ctx, []*Plan{p}, ix, st))
}

// RunIndexedContext ranks the indexed candidates for every query in the
// batch, with cooperative cancellation: the batch counterpart of
// Plan.RunIndexedStatsContext. One traversal serves every query, descending
// by the max-over-queries envelope bound (a subtree is skipped only when
// every query's floor dominates its bound for that query — the same max the
// flat scan orders candidates by) and sharing each visited member's bound
// caches and score/fit memos across the batch. Per-query floors, pruning,
// verification and selection stay independent, so per-query results are
// byte-identical to running each plan alone.
func (mp *MultiPlan) RunIndexedContext(ctx context.Context, ix *VizIndex) ([][]Result, error) {
	if !mp.plans[0].prune || mp.plans[0].distance {
		return mp.RunGroupedContext(ctx, ix.vizs)
	}
	return traverse(ctx, mp.plans, ix, nil)
}
