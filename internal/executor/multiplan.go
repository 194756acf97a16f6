package executor

import (
	"context"
	"fmt"

	"shapesearch/internal/dataset"
	"shapesearch/internal/shape"
)

// MultiPlan executes a batch of compiled queries against one corpus in a
// single pass: every candidate visualization is grouped, bounded and scored
// once for all Q queries, by the same two drivers a single Plan runs
// through as a batch of one (see pipeline.go). The shared-evaluation
// machinery of one plan (interned unit signatures, the per-candidate
// score/fit memos, the stride grid and SegmentTree leaf skeleton, the
// bound-group dedup) extends across plans: CompileBatch and NewMultiPlan
// re-intern every query's unit signatures into one shared table, so
// per-candidate cost is solve_shared + Σ_q distinct_work(q)
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
	// plans holds one Plan per query. In a batch of several segmentation
	// queries each is a shadow plan: a shallow copy of the caller's plan
	// whose Options carry the batch-interned chainMeta; a batch of one, or
	// of distance rankings, holds the caller's plans. The plans passed to
	// NewMultiPlan are never mutated. Option compatibility makes the
	// pruning and distance flags uniform across the batch.
	plans []*Plan
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
	mp := &MultiPlan{plans: append([]*Plan(nil), plans...)}
	if len(plans) == 1 || plans[0].distance {
		// One plan's chainMeta already interns its own signatures
		// (buildChainMeta is sigIntern.add + finalize over one query).
		// Distance rankings (DTW/Euclidean) have no unit signatures to
		// share; the batch still amortizes EXTRACT + GROUP per candidate
		// key, and each plan scans the shared candidates itself.
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
	case a.UDPs != b.UDPs && (len(a.UDPs.Names()) > 0 || len(b.UDPs.Names()) > 0):
		// Distinct empty registries (the per-compile default) define the
		// same (absent) patterns; distinct non-empty ones may not.
		return fmt.Errorf("distinct UDP registries")
	}
	return nil
}

// SearchContext runs the full EXTRACT → GROUP → SEGMENT → SCORE pipeline
// for the whole batch, with cooperative cancellation, returning one result
// slice per query in input order. Queries are grouped by
// Plan.CandidateKey: queries whose effective spec and GROUP configuration
// agree (equal keys guarantee identical grouped candidates) extract and
// group once and score in one multi-query pass; each distinct key pays one
// EXTRACT + GROUP. A serving layer with a candidate cache does the same
// grouping itself and calls RunGroupedContext per cached entry.
func (mp *MultiPlan) SearchContext(ctx context.Context, src dataset.Source, spec dataset.ExtractSpec) ([][]Result, error) {
	return mp.runByKey(ctx, func(p *Plan) string { return p.CandidateKey(spec) },
		func(lead *Plan) ([]dataset.Series, error) { return src.Extract(lead.EffectiveSpec(spec)) })
}

// RunContext ranks pre-extracted series for every query in the batch, with
// cooperative cancellation. As in SearchContext, queries sharing a GROUP
// configuration (push-down filter windows and z-normalization —
// CandidateKey under an empty spec) group once.
func (mp *MultiPlan) RunContext(ctx context.Context, series []dataset.Series) ([][]Result, error) {
	return mp.runByKey(ctx, func(p *Plan) string { return p.CandidateKey(dataset.ExtractSpec{}) },
		func(*Plan) ([]dataset.Series, error) { return series, nil })
}

// RunGroupedContext ranks pre-grouped candidates for every query in the
// batch, with cooperative cancellation. The caller asserts the vizs are
// valid for all queries (same candidate key — the server guarantees this
// per candidate-cache entry).
func (mp *MultiPlan) RunGroupedContext(ctx context.Context, vizs []*Viz) ([][]Result, error) {
	return scan(ctx, mp.plans, len(vizs), func(i int) *Viz { return vizs[i] })
}

// runByKey partitions the queries by candidate key, in first-appearance
// order (deterministic across runs), and per distinct key fetches the
// series once (through the group's first plan) and ranks them for the
// whole group in one pass (runSeries). Results are per query, in input
// order.
func (mp *MultiPlan) runByKey(ctx context.Context, key func(*Plan) string, fetch func(lead *Plan) ([]dataset.Series, error)) ([][]Result, error) {
	groups := make(map[string][]int, len(mp.plans))
	order := make([]string, 0, len(mp.plans))
	for i, p := range mp.plans {
		k := key(p)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]Result, len(mp.plans))
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idxs := groups[k]
		plans := make([]*Plan, len(idxs))
		for gi, qi := range idxs {
			plans[gi] = mp.plans[qi]
		}
		series, err := fetch(plans[0])
		if err != nil {
			return nil, err
		}
		res, err := runSeries(ctx, plans, series)
		if err != nil {
			return nil, err
		}
		for gi, qi := range idxs {
			out[qi] = res[gi]
		}
	}
	return out, nil
}
