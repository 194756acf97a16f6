package executor

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"shapesearch/internal/dataset"
	"shapesearch/internal/shape"
)

// MultiPlan executes a batch of compiled queries against one corpus in a
// single pass: every candidate visualization is grouped, bounded and scored
// once for all Q queries, on the same worker pool a single Plan uses. The
// shared-evaluation machinery of one plan (interned unit signatures, the
// per-candidate score/fit memos, the stride grid and SegmentTree leaf
// skeleton, the bound-group dedup) extends across plans: CompileBatch and
// NewMultiPlan re-intern every query's unit signatures into one shared
// table, so per-candidate cost is solve_shared + Σ_q distinct_work(q)
// instead of Σ_q (solve + all work) — related queries (the production
// traffic shape: one user intent fanned out into dozens of near-identical
// trend queries, or many users typing variations of one question) share
// everything they have in common.
//
// Per query, nothing is shared that would change results: each query keeps
// its own top-k heap, its own atomic pruning floor, and its own sound upper
// bounds, so lossless pruning composes per query — a candidate is skipped
// only for the queries whose bound falls below *that query's* floor, and
// the deferred exact-verification stage runs per query. Results are
// byte-identical (score bits, ranking, Ranges, BreakXs) to running each
// plan alone, pinned by TestSearchBatchMatchesSequential.
//
// A MultiPlan is immutable after construction and safe for concurrent use.
type MultiPlan struct {
	// plans holds one shadow Plan per query: a shallow copy of the caller's
	// plan whose Options carry the batch-interned chainMeta. The underlying
	// plans passed to NewMultiPlan are never mutated.
	plans []*Plan
	// prune and distance mirror the per-plan flags; option compatibility
	// makes them uniform across the batch.
	prune    bool
	distance bool
}

// CompileBatch compiles Q queries under one set of options and interns
// their unit signatures into one shared table (see MultiPlan). Options are
// normalized once and apply to every query.
func CompileBatch(qs []shape.Query, opts Options) (*MultiPlan, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("executor: CompileBatch needs at least one query")
	}
	plans := make([]*Plan, len(qs))
	for i, q := range qs {
		p, err := Compile(q, opts)
		if err != nil {
			return nil, fmt.Errorf("executor: batch query %d: %w", i, err)
		}
		plans[i] = p
	}
	return NewMultiPlan(plans)
}

// NewMultiPlan builds a batch executor from already-compiled plans (e.g.
// plans served by a plan cache). The plans' options must agree on every
// field that affects scoring or segmentation — algorithm, stride, width
// floor, pruning, push-down, thresholds, UDP registry, sketch config —
// because batch execution shares per-candidate work across queries and the
// shared entries must be exact for all of them. K may differ per query
// (each keeps its own heap); the first plan's Parallelism drives the pool.
// The input plans are not mutated and remain independently usable.
func NewMultiPlan(plans []*Plan) (*MultiPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("executor: NewMultiPlan needs at least one plan")
	}
	for i, p := range plans[1:] {
		if err := compatibleOpts(plans[0].opts, p.opts); err != nil {
			return nil, fmt.Errorf("executor: batch plan %d incompatible with plan 0: %w", i+1, err)
		}
	}
	mp := &MultiPlan{prune: plans[0].prune, distance: plans[0].distance}
	if mp.distance {
		// Distance rankings (DTW/Euclidean) have no unit signatures to
		// share; the batch still amortizes EXTRACT + GROUP per candidate
		// key, and each plan scans the shared candidates itself.
		mp.plans = plans
		return mp, nil
	}
	// Re-intern every query's signatures into one shared table and hand
	// each query a shadow plan whose chainMeta carries the global ids. The
	// shadow options are copies: the caller's plans keep their single-query
	// metadata untouched.
	st := newSigIntern()
	metas := make([]*chainMeta, len(plans))
	for i, p := range plans {
		metas[i] = st.add(p.norm)
	}
	st.finalize(metas...)
	mp.plans = make([]*Plan, len(plans))
	for i, p := range plans {
		o := *p.opts
		o.chainMeta = metas[i]
		sp := *p
		sp.opts = &o
		mp.plans[i] = &sp
	}
	return mp, nil
}

// compatibleOpts verifies two normalized option sets may share batch
// evaluation state. Every field that flows into a unit score, a
// segmentation grid, a sound bound, or the candidate set must match; K and
// Parallelism are per-query/pool concerns and may differ.
func compatibleOpts(a, b *Options) error {
	switch {
	case a.Algorithm != b.Algorithm:
		return fmt.Errorf("algorithm %v != %v", a.Algorithm, b.Algorithm)
	case a.Stride != b.Stride:
		return fmt.Errorf("stride %d != %d", a.Stride, b.Stride)
	case a.MinSegmentFrac != b.MinSegmentFrac:
		return fmt.Errorf("minSegmentFrac %v != %v", a.MinSegmentFrac, b.MinSegmentFrac)
	case a.Pushdown != b.Pushdown:
		return fmt.Errorf("pushdown %v != %v", a.Pushdown, b.Pushdown)
	case a.Pruning != b.Pruning:
		return fmt.Errorf("pruning %v != %v", a.Pruning, b.Pruning)
	case a.QuantifierThreshold != b.QuantifierThreshold:
		return fmt.Errorf("quantifierThreshold %v != %v", a.QuantifierThreshold, b.QuantifierThreshold)
	case a.UDPs != b.UDPs && (len(a.UDPs.Names()) > 0 || len(b.UDPs.Names()) > 0):
		// Distinct empty registries (the per-compile default) define the
		// same (absent) patterns; distinct non-empty ones may not.
		return fmt.Errorf("distinct UDP registries")
	case a.SketchConfig != b.SketchConfig:
		return fmt.Errorf("sketchConfig %v != %v", a.SketchConfig, b.SketchConfig)
	case a.MaxExhaustivePoints != b.MaxExhaustivePoints:
		return fmt.Errorf("maxExhaustivePoints %d != %d", a.MaxExhaustivePoints, b.MaxExhaustivePoints)
	case a.DTWBand != b.DTWBand:
		return fmt.Errorf("dtwBand %d != %d", a.DTWBand, b.DTWBand)
	}
	return nil
}

// Queries reports the number of queries in the batch.
func (mp *MultiPlan) Queries() int { return len(mp.plans) }

// Search runs the full EXTRACT → GROUP → SEGMENT → SCORE pipeline for the
// whole batch, returning one result slice per query in input order.
func (mp *MultiPlan) Search(src dataset.Source, spec dataset.ExtractSpec) ([][]Result, error) {
	return mp.SearchContext(context.Background(), src, spec)
}

// SearchContext is Search with cooperative cancellation. Queries are
// grouped by Plan.CandidateKey: queries whose effective spec and GROUP
// configuration agree (equal keys guarantee identical grouped candidates)
// extract and group once and score in one multi-query pass; each distinct
// key pays one EXTRACT + GROUP. A serving layer with a candidate cache does
// the same grouping itself and calls RunGroupedContext per cached entry.
func (mp *MultiPlan) SearchContext(ctx context.Context, src dataset.Source, spec dataset.ExtractSpec) ([][]Result, error) {
	out := make([][]Result, len(mp.plans))
	err := mp.forEachKeyGroup(func(p *Plan) string { return p.CandidateKey(spec) },
		func(idxs []int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			lead := mp.plans[idxs[0]]
			series, err := src.Extract(lead.EffectiveSpec(spec))
			if err != nil {
				return err
			}
			vizs := lead.GroupSeries(series)
			res, err := mp.runMulti(ctx, idxs, len(vizs), func(i int) *Viz { return vizs[i] })
			if err != nil {
				return err
			}
			for gi, qi := range idxs {
				out[qi] = res[gi]
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Run ranks pre-extracted series for every query in the batch.
func (mp *MultiPlan) Run(series []dataset.Series) ([][]Result, error) {
	return mp.RunContext(context.Background(), series)
}

// RunContext is Run with cooperative cancellation. As in SearchContext,
// queries sharing a GROUP configuration (push-down filter windows and
// z-normalization — CandidateKey under an empty spec) group once.
func (mp *MultiPlan) RunContext(ctx context.Context, series []dataset.Series) ([][]Result, error) {
	out := make([][]Result, len(mp.plans))
	err := mp.forEachKeyGroup(func(p *Plan) string { return p.CandidateKey(dataset.ExtractSpec{}) },
		func(idxs []int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			lead := mp.plans[idxs[0]]
			vizs := lead.GroupSeries(series)
			res, err := mp.runMulti(ctx, idxs, len(vizs), func(i int) *Viz { return vizs[i] })
			if err != nil {
				return err
			}
			for gi, qi := range idxs {
				out[qi] = res[gi]
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunGrouped ranks pre-grouped candidates for every query in the batch.
// The caller asserts the vizs are valid for all queries (same candidate
// key — the server guarantees this per candidate-cache entry).
func (mp *MultiPlan) RunGrouped(vizs []*Viz) ([][]Result, error) {
	return mp.RunGroupedContext(context.Background(), vizs)
}

// RunGroupedContext is RunGrouped with cooperative cancellation.
func (mp *MultiPlan) RunGroupedContext(ctx context.Context, vizs []*Viz) ([][]Result, error) {
	idxs := make([]int, len(mp.plans))
	for i := range idxs {
		idxs[i] = i
	}
	return mp.runMulti(ctx, idxs, len(vizs), func(i int) *Viz { return vizs[i] })
}

// forEachKeyGroup partitions query indices by key and runs fn once per
// distinct key, in first-appearance order (deterministic across runs).
func (mp *MultiPlan) forEachKeyGroup(key func(*Plan) string, fn func(idxs []int) error) error {
	groups := make(map[string][]int, len(mp.plans))
	order := make([]string, 0, len(mp.plans))
	for i, p := range mp.plans {
		k := key(p)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		if err := fn(groups[k]); err != nil {
			return err
		}
	}
	return nil
}

// runMulti is the batch scoring pipeline: one pass over n candidates
// scoring every query in idxs (indices into mp.plans). It mirrors Plan.run
// stage for stage — bound-first ordering, live shared floors, deferred
// verification — with the per-query state vectorized:
//
//   - Bound pass: each candidate's bound caches (slope interval per width
//     floor, unit bound per signature, chain bound per bound group — all
//     keyed by batch-global ids) are reset once and then serve every
//     query's soundUpperBound, so a unit bound shared by five queries is
//     derived once per candidate, not five times.
//   - Ordering: candidates score in descending max-over-queries bound
//     order. Order affects only how fast each query's floor tightens,
//     never the result; the max is the right single key because a
//     candidate that is strong for any query must score early for that
//     query's floor.
//   - Scan: per candidate, the score/fit memos reset before the first
//     query actually evaluated, then stay live across the remaining
//     queries — every (signature, range) score and every range fit is
//     computed once per candidate for the whole batch. A query whose floor
//     dominates the candidate's bound skips it (recorded, not discarded)
//     without consuming the reset.
//   - Verification: per query, exactly as Plan.run — any candidate pruned
//     for query q whose bound reaches q's final floor is re-scored, so
//     per-query results equal the unpruned per-query scan.
//
// Returned results are indexed like idxs.
func (mp *MultiPlan) runMulti(ctx context.Context, idxs []int, n int, viz func(int) *Viz) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mp.distance {
		// Distance baselines keep per-plan scans over the shared candidates
		// (their per-(alternative, length) reference memos are plan-local).
		out := make([][]Result, len(idxs))
		for gi, qi := range idxs {
			res, err := mp.plans[qi].run(ctx, n, viz)
			if err != nil {
				return nil, err
			}
			out[gi] = res
		}
		return out, nil
	}
	if len(idxs) == 1 {
		res, err := mp.plans[idxs[0]].run(ctx, n, viz)
		if err != nil {
			return nil, err
		}
		return [][]Result{res}, nil
	}
	plans := make([]*Plan, len(idxs))
	for gi, qi := range idxs {
		plans[gi] = mp.plans[qi]
	}
	o0 := plans[0].opts

	if mp.prune && !o0.DisableAutoIndex && n >= lazyIndexMinCorpus {
		// Same corpus-scale routing as Plan.run: materialize once, index,
		// traverse best-first for the whole batch.
		vizs := make([]*Viz, n)
		w := o0.Parallelism
		if ctxErr := forEachIndex(ctx, w, n, func(_, i int) { vizs[i] = viz(i) }); ctxErr != nil {
			return nil, ctxErr
		}
		ix, ixErr := BuildVizIndexContext(ctx, vizs, 0)
		if ixErr != nil {
			return nil, ixErr
		}
		return mp.runMultiIndexed(ctx, plans, ix)
	}

	workers := o0.Parallelism
	if workers > n {
		workers = n
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

	Q := len(plans)
	slots := make([][]slot, Q)
	shared := make([]*sharedTopK, Q)
	for qi, p := range plans {
		slots[qi] = make([]slot, n)
		shared[qi] = newSharedTopK(p.opts.K)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if mp.prune {
		// Bound every candidate for every query up front. maxUB drives the
		// scan order; the per-query bounds drive per-query pruning.
		maxUB := make([]float64, n)
		for i := range maxUB {
			maxUB[i] = math.Inf(-1)
		}
		ctxErr := forEachIndex(ctx, workers, n, func(worker, i int) {
			v := viz(i)
			if v == nil {
				return
			}
			ec := ecs[worker]
			// One reset serves the whole batch: nBoundGroups and every
			// signature id are batch-global, identical in all metas.
			ec.resetBoundCaches(o0.chainMeta)
			for qi, p := range plans {
				ub := soundUpperBoundShared(ec, v, p.norm, p.opts)
				slots[qi][i] = slot{v: v, ub: ub, pruned: true}
				if ub > maxUB[i] {
					maxUB[i] = ub
				}
			}
		})
		if ctxErr != nil {
			return nil, ctxErr
		}
		sort.Slice(order, func(a, b int) bool {
			ua, ub := maxUB[order[a]], maxUB[order[b]]
			if ua != ub {
				return ua > ub
			}
			return order[a] < order[b]
		})
	}

	ctxErr := forEachIndex(ctx, workers, n, func(worker, j int) {
		if abort.Load() {
			return
		}
		i := order[j]
		var v *Viz
		if mp.prune {
			v = slots[0][i].v
		} else {
			v = viz(i)
		}
		if v == nil {
			return
		}
		if o0.Algorithm == AlgExhaustive && v.N() > o0.MaxExhaustivePoints {
			fail(fmt.Errorf("executor: exhaustive search limited to %d points, series %q has %d",
				o0.MaxExhaustivePoints, v.Series.Z, v.N()))
			return
		}
		ec := ecs[worker]
		// The memo reset is consumed by the first query actually evaluated
		// on this candidate; per-query pruning skips must not consume it
		// (the memos would then carry the previous candidate's entries).
		resetMemo := true
		for qi, p := range plans {
			if mp.prune {
				threshold := shared[qi].fastFloor() + p.opts.pruneThresholdBias
				if !math.IsInf(threshold, -1) && slots[qi][i].ub < threshold {
					continue // pruned for this query only; stays recorded
				}
			}
			sc, ranges, err := evalVizShared(ec, v, p.norm, p.opts, p.solver, resetMemo)
			if err != nil {
				fail(err)
				return
			}
			resetMemo = false
			if mp.prune {
				shared[qi].add(sc)
			}
			slots[qi][i] = scoredSlot(v, sc, ranges)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if ctxErr != nil {
		return nil, ctxErr
	}

	if mp.prune {
		for qi, p := range plans {
			floor, full := shared[qi].floor()
			if err := p.verifyPruned(ctx, workers, ecs, slots[qi], floor, full, fail, &abort); err != nil {
				return nil, err
			}
			if firstErr != nil {
				return nil, firstErr
			}
		}
	}

	out := make([][]Result, Q)
	for qi, p := range plans {
		out[qi] = topKSlots(slots[qi], p.opts.K)
	}
	return out, nil
}

// SearchBatch compiles qs under one set of options and runs the whole batch
// against the source in one pass — the convenience wrapper over
// CompileBatch + MultiPlan.Search. Results are per query, in input order.
func SearchBatch(src dataset.Source, spec dataset.ExtractSpec, qs []shape.Query, opts Options) ([][]Result, error) {
	return SearchBatchContext(context.Background(), src, spec, qs, opts)
}

// SearchBatchContext is SearchBatch with cooperative cancellation.
func SearchBatchContext(ctx context.Context, src dataset.Source, spec dataset.ExtractSpec, qs []shape.Query, opts Options) ([][]Result, error) {
	mp, err := CompileBatch(qs, opts)
	if err != nil {
		return nil, err
	}
	return mp.SearchContext(ctx, src, spec)
}
