package executor

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"shapesearch/internal/shape"
	"shapesearch/internal/shapeindex"
)

// This file wires the corpus shape index (internal/shapeindex) into the
// scoring pipeline. The flat pruned scan (Plan.run) still bounds every
// candidate once per query — O(N) even when the bound would let it skip the
// whole corpus. The index precomputes the bound's query-independent per-viz
// ingredients (Viz.boundSummary) once, merges them into bucket envelopes
// whose capped-extreme intervals dominate every member's, and lets a query
// traverse buckets best-first: a subtree whose envelope bound trails the
// live top-k floor is skipped without ever touching its members.
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
// existing slot machinery — exact scoring, deferred verification, (score
// desc, index asc) selection — so indexed results are byte-identical to the
// flat scan's (TestIndexedSearchMatchesScan).

// lazyIndexMinCorpus is the corpus size at which Plan.run builds a
// throwaway index instead of flat-scanning: below it the build (summaries +
// sort) costs more than the skipped bounds save.
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

// BuildVizIndex precomputes each candidate's bound summary (in parallel —
// the per-viz slope-extreme scan is the dominant cost) and builds the
// sharded envelope index over them. Nil entries are tolerated and never
// surface in traversal. shards <= 0 picks GOMAXPROCS. Uncancellable
// compatibility wrapper for BuildVizIndexContext.
func BuildVizIndex(vizs []*Viz, shards int) *VizIndex {
	ix, _ := BuildVizIndexContext(context.Background(), vizs, shards)
	return ix
}

// BuildVizIndexContext is BuildVizIndex under the caller's cancellation:
// ctx aborts the parallel summary pass between candidates and the build
// returns ctx's error with a nil index.
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

// Vizs returns the indexed candidate slice (shared, read-only).
func (x *VizIndex) Vizs() []*Viz { return x.vizs }

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
// envelope alone: soundUpperBoundShared's interval composition evaluated at
// the envelope's merged extremes, minimum point count and maximum grid
// ratio. resetBoundCaches must precede it (the convenience wrapper below
// does); the caches compose across queries exactly as for members.
func envelopeUpperBound(ec *evalCtx, s *shapeindex.Summary, norm shape.Normalized, o *Options) float64 {
	ec.resetBoundCaches(o.chainMeta)
	return envelopeUpperBoundShared(ec, s, norm, o)
}

func envelopeUpperBoundShared(ec *evalCtx, s *shapeindex.Summary, norm shape.Normalized, o *Options) float64 {
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

// RunIndexed ranks the indexed candidates against the compiled query.
func (p *Plan) RunIndexed(ix *VizIndex) ([]Result, error) {
	return p.RunIndexedContext(context.Background(), ix)
}

// RunIndexedContext is RunIndexed with cooperative cancellation (see
// SearchContext).
func (p *Plan) RunIndexedContext(ctx context.Context, ix *VizIndex) ([]Result, error) {
	return p.RunIndexedStatsContext(ctx, ix, nil)
}

// RunIndexedStatsContext additionally fills st (when non-nil) with traversal
// statistics. Engines without a sound bound to traverse by (distance
// baselines, pruning disabled) fall back to the flat pipeline over the
// indexed slice — same results, no skipping.
func (p *Plan) RunIndexedStatsContext(ctx context.Context, ix *VizIndex, st *IndexStats) ([]Result, error) {
	if !p.prune || p.distance {
		if st != nil {
			*st = IndexStats{Candidates: ix.Len(), Visited: ix.Len(), Scored: ix.Len()}
		}
		return p.run(ctx, len(ix.vizs), func(i int) *Viz { return ix.vizs[i] })
	}
	return p.runIndexed(ctx, ix, st)
}

// idxRec is one visited candidate's pipeline outcome, tagged with its
// corpus id. The indexed pipeline records only visited members — sparse,
// unlike the flat scan's dense slot array — so skipped corpus stays
// untouched in memory too.
type idxRec struct {
	id int32
	s  slot
}

// runIndexed is the indexed counterpart of Plan.run: per-shard best-first
// traversal on the worker pool, one worker per shard slot, all shards
// feeding one atomic top-k floor (the PR 5 broadcast — a floor raised by
// any shard prunes subtrees in every other). Within a surviving leaf,
// members are bounded individually and scored in descending-bound order,
// exactly the flat scan's bound-first discipline at bucket granularity.
// Deferred verification then re-scores any visited-but-pruned member whose
// bound reaches the final floor; unvisited members need no verification —
// their envelope bound, which dominates their exact score, was below a
// floor that only rose.
func (p *Plan) runIndexed(ctx context.Context, ix *VizIndex, st *IndexStats) ([]Result, error) {
	o := p.opts
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nShards := ix.ix.NumShards()
	if nShards == 0 {
		return topKSlots(nil, o.K), nil
	}
	workers := o.Parallelism
	if workers > nShards {
		workers = nShards
	}
	if workers < 1 {
		workers = 1
	}
	ecs := make([]*evalCtx, workers)
	for i := range ecs {
		ecs[i] = getEvalCtx()
	}
	defer func() {
		for _, ec := range ecs {
			putEvalCtx(ec)
		}
	}()

	var (
		errMu    sync.Mutex
		firstErr error
		abort    atomic.Bool
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort.Store(true)
	}

	shared := newSharedTopK(o.K)
	perShard := make([][]idxRec, nShards)
	var leaves, visited, scored atomic.Int64

	ctxErr := forEachIndex(ctx, workers, nShards, func(worker, si int) {
		ec := ecs[worker]
		var recs []idxRec
		ix.ix.Traverse(si,
			func(env *shapeindex.Summary) float64 { return envelopeUpperBound(ec, env, p.norm, o) },
			shared.fastFloor,
			boundEps,
			func(members []int32, _ float64) bool {
				if abort.Load() || ctx.Err() != nil {
					return false
				}
				leaves.Add(1)
				visited.Add(int64(len(members)))
				base := len(recs)
				for _, id := range members {
					v := ix.vizs[id]
					if v == nil {
						continue // update-nilled slot: folds unboundable, nothing to score
					}
					recs = append(recs, idxRec{id: id, s: slot{v: v, ub: soundUpperBound(ec, v, p.norm, o), pruned: true}})
				}
				bucket := recs[base:]
				sort.Slice(bucket, func(a, b int) bool {
					if bucket[a].s.ub != bucket[b].s.ub {
						return bucket[a].s.ub > bucket[b].s.ub
					}
					return bucket[a].id < bucket[b].id
				})
				for bi := range bucket {
					r := &bucket[bi]
					threshold := shared.fastFloor() + o.pruneThresholdBias
					if !math.IsInf(threshold, -1) && r.s.ub < threshold {
						continue // stays recorded as pruned, with its bound
					}
					sc, ranges, err := evalViz(ec, r.s.v, p.norm, o, p.solver)
					if err != nil {
						fail(err)
						return false
					}
					shared.add(sc)
					scored.Add(1)
					r.s = scoredSlot(r.s.v, sc, ranges)
				}
				return true
			})
		perShard[si] = recs
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if ctxErr != nil {
		return nil, ctxErr
	}

	all := mergeRecs(perShard)
	floor, full := shared.floor()
	if err := p.verifyRecs(ctx, workers, ecs, all, floor, full, fail, &abort, &scored); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if st != nil {
		*st = IndexStats{
			Candidates: ix.Len(),
			Leaves:     int(leaves.Load()),
			Visited:    int(visited.Load()),
			Scored:     int(scored.Load()),
		}
	}
	return topKRecs(all, o.K), nil
}

func mergeRecs(perShard [][]idxRec) []idxRec {
	total := 0
	for _, recs := range perShard {
		total += len(recs)
	}
	all := make([]idxRec, 0, total)
	for _, recs := range perShard {
		all = append(all, recs...)
	}
	return all
}

// verifyRecs is verifyPruned over sparse records: every visited member left
// pruned whose bound is not strictly dominated by the final floor is
// re-scored exactly, in place.
func (p *Plan) verifyRecs(ctx context.Context, workers int, ecs []*evalCtx, all []idxRec, floor float64, full bool, fail func(error), abort *atomic.Bool, scored *atomic.Int64) error {
	rescue := make([]int, 0, 16)
	for i := range all {
		if all[i].s.pruned && (!full || all[i].s.ub >= floor-boundEps) {
			rescue = append(rescue, i)
		}
	}
	if len(rescue) == 0 {
		return nil
	}
	return forEachIndex(ctx, workers, len(rescue), func(worker, j int) {
		if abort.Load() {
			return
		}
		i := rescue[j]
		sc, ranges, err := evalViz(ecs[worker], all[i].s.v, p.norm, p.opts, p.solver)
		if err != nil {
			fail(err)
			return
		}
		if scored != nil {
			scored.Add(1)
		}
		all[i].s = scoredSlot(all[i].s.v, sc, ranges)
	})
}

// topKRecs selects the top-k from sparse records by (score desc, corpus id
// asc) — the same deterministic rule topKSlots applies by input position,
// so indexed and flat rankings agree bit for bit.
func topKRecs(all []idxRec, k int) []Result {
	idx := make([]int, 0, len(all))
	for i := range all {
		if all[i].s.ok {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := all[idx[a]].s.score, all[idx[b]].s.score
		if sa != sb {
			return sa > sb
		}
		return all[idx[a]].id < all[idx[b]].id
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]Result, len(idx))
	for i, j := range idx {
		s := &all[j].s
		out[i] = makeResult(s.v, s.score, s.ranges)
	}
	return out
}

// RunIndexed ranks the indexed candidates for every query in the batch.
func (mp *MultiPlan) RunIndexed(ix *VizIndex) ([][]Result, error) {
	return mp.RunIndexedContext(context.Background(), ix)
}

// RunIndexedContext is the batch counterpart of Plan.RunIndexedContext: one
// traversal serves every query, descending by the max-over-queries envelope
// bound (a subtree is skipped only when every query's floor dominates its
// bound for that query — the same max runMulti orders candidates by) and
// sharing each visited member's bound caches and score/fit memos across the
// batch exactly as runMulti does. Per-query floors, pruning, verification
// and selection stay independent, so per-query results are byte-identical
// to running each plan alone.
func (mp *MultiPlan) RunIndexedContext(ctx context.Context, ix *VizIndex) ([][]Result, error) {
	if mp.distance || !mp.prune {
		return mp.RunGroupedContext(ctx, ix.vizs)
	}
	if len(mp.plans) == 1 {
		res, err := mp.plans[0].runIndexed(ctx, ix, nil)
		if err != nil {
			return nil, err
		}
		return [][]Result{res}, nil
	}
	return mp.runMultiIndexed(ctx, mp.plans, ix)
}

// runMultiIndexed is runMulti at index granularity; results are indexed
// like plans.
func (mp *MultiPlan) runMultiIndexed(ctx context.Context, plans []*Plan, ix *VizIndex) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o0 := plans[0].opts
	Q := len(plans)
	nShards := ix.ix.NumShards()
	out := make([][]Result, Q)
	if nShards == 0 {
		for qi, p := range plans {
			out[qi] = topKSlots(nil, p.opts.K)
		}
		return out, nil
	}
	workers := o0.Parallelism
	if workers > nShards {
		workers = nShards
	}
	if workers < 1 {
		workers = 1
	}
	ecs := make([]*evalCtx, workers)
	for i := range ecs {
		ecs[i] = getEvalCtx()
	}
	defer func() {
		for _, ec := range ecs {
			putEvalCtx(ec)
		}
	}()

	var (
		errMu    sync.Mutex
		firstErr error
		abort    atomic.Bool
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort.Store(true)
	}

	shared := make([]*sharedTopK, Q)
	for qi, p := range plans {
		shared[qi] = newSharedTopK(p.opts.K)
	}
	// The traversal floor is the weakest query's: a subtree survives while
	// any query might still want it. −Inf until every heap fills, so nothing
	// is skipped before each query has k exact scores.
	minFloor := func() float64 {
		f := math.Inf(1)
		for _, s := range shared {
			if v := s.fastFloor(); v < f {
				f = v
			}
		}
		return f
	}
	perShard := make([][][]idxRec, nShards) // [shard][query] records

	ctxErr := forEachIndex(ctx, workers, nShards, func(worker, si int) {
		ec := ecs[worker]
		recs := make([][]idxRec, Q)
		ix.ix.Traverse(si,
			func(env *shapeindex.Summary) float64 {
				// One reset serves the whole batch (batch-global ids), as in
				// runMulti's bound pass.
				ec.resetBoundCaches(o0.chainMeta)
				ub := math.Inf(-1)
				for _, p := range plans {
					if b := envelopeUpperBoundShared(ec, env, p.norm, p.opts); b > ub {
						ub = b
					}
				}
				return ub
			},
			minFloor,
			boundEps,
			func(members []int32, _ float64) bool {
				if abort.Load() || ctx.Err() != nil {
					return false
				}
				base := len(recs[0])
				maxUB := make([]float64, 0, len(members))
				for _, id := range members {
					v := ix.vizs[id]
					if v == nil {
						continue // update-nilled slot: folds unboundable, nothing to score
					}
					ec.resetBoundCaches(o0.chainMeta)
					ub0 := math.Inf(-1)
					for qi, p := range plans {
						ub := soundUpperBoundShared(ec, v, p.norm, p.opts)
						recs[qi] = append(recs[qi], idxRec{id: id, s: slot{v: v, ub: ub, pruned: true}})
						if ub > ub0 {
							ub0 = ub
						}
					}
					maxUB = append(maxUB, ub0)
				}
				m := len(maxUB)
				// Score in descending max-over-queries bound order (members
				// arrive id-ascending, so index order breaks ties like
				// runMulti's input order does).
				order := make([]int, m)
				for i := range order {
					order[i] = i
				}
				sort.Slice(order, func(a, b int) bool {
					if maxUB[order[a]] != maxUB[order[b]] {
						return maxUB[order[a]] > maxUB[order[b]]
					}
					return order[a] < order[b]
				})
				for _, mi := range order {
					resetMemo := true
					for qi, p := range plans {
						r := &recs[qi][base+mi]
						threshold := shared[qi].fastFloor() + p.opts.pruneThresholdBias
						if !math.IsInf(threshold, -1) && r.s.ub < threshold {
							continue // pruned for this query only; stays recorded
						}
						sc, ranges, err := evalVizShared(ec, r.s.v, p.norm, p.opts, p.solver, resetMemo)
						if err != nil {
							fail(err)
							return false
						}
						resetMemo = false
						shared[qi].add(sc)
						r.s = scoredSlot(r.s.v, sc, ranges)
					}
				}
				return true
			})
		perShard[si] = recs
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if ctxErr != nil {
		return nil, ctxErr
	}

	for qi, p := range plans {
		perQuery := make([][]idxRec, 0, nShards)
		for _, recs := range perShard {
			if recs != nil {
				perQuery = append(perQuery, recs[qi])
			}
		}
		all := mergeRecs(perQuery)
		floor, full := shared[qi].floor()
		if err := p.verifyRecs(ctx, workers, ecs, all, floor, full, fail, &abort, nil); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		out[qi] = topKRecs(all, p.opts.K)
	}
	return out, nil
}
