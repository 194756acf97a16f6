package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
)

// allocSeries builds a deterministic candidate collection big enough that
// per-candidate allocations dominate any per-run fixed cost.
func allocSeries(n, points int) []dataset.Series {
	rng := rand.New(rand.NewSource(7))
	series := make([]dataset.Series, n)
	for i := range series {
		s := randomSeries(rng, points)
		s.Z = fmt.Sprintf("s%03d", i)
		series[i] = s
	}
	return series
}

// TestSteadyStateAllocs pins the scoring kernel's allocation budget:
// steady-state Plan.RunGrouped must not allocate per candidate beyond the
// winning range assignment each scored candidate keeps — everything else
// lives in the pooled per-worker evalCtx, and a Result (with its BreakXs)
// is built only for the final top-k. Before the pooled kernel the
// SegmentTree path allocated ~400 heap objects per candidate. The 16-series
// budget would fail by an order of magnitude if per-candidate garbage crept
// back in; the 64-series budget, two objects per candidate, would fail if a
// second object per candidate did (a per-candidate Result did).
func TestSteadyStateAllocs(t *testing.T) {
	const points = 120
	sizes := []struct{ nSeries, budget int }{
		// Per run: slots/heap/result bookkeeping plus the escaping slices.
		// 10 × nSeries is an order of magnitude below the pre-pooling
		// kernel's budget.
		{16, 10 * 16},
		// At 64 candidates the per-run bookkeeping is amortized enough to
		// see the per-candidate count.
		{64, 2 * 64},
	}
	for _, alg := range []struct {
		name    string
		a       Algorithm
		pruning bool
	}{{"DP", AlgDP, false}, {"SegmentTree", AlgSegmentTree, false},
		// The pruned pipeline's per-candidate bound check must be free in
		// steady state: slope stats are memoized on the Viz (filled during
		// warm-up) and the pin/run scratch lives on the pooled evalCtx.
		// Only per-run bookkeeping (slots, order, heaps) may allocate,
		// and that is covered by the same budget.
		{"SegmentTreePruned", AlgSegmentTree, true}} {
		t.Run(alg.name, func(t *testing.T) {
			opts := seqOpts()
			opts.Algorithm = alg.a
			opts.Pruning = alg.pruning
			plan, err := Compile(regexlang.MustParse("u ; d ; u"), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range sizes {
				t.Run(fmt.Sprintf("series=%d", size.nSeries), func(t *testing.T) {
					vizs := plan.GroupSeries(allocSeries(size.nSeries, points))
					if len(vizs) != size.nSeries {
						t.Fatalf("grouped %d vizs, want %d", len(vizs), size.nSeries)
					}
					// Warm the context pool and the per-viz memos.
					if _, err := plan.RunGrouped(vizs); err != nil {
						t.Fatal(err)
					}
					avg := testing.AllocsPerRun(5, func() {
						if _, err := plan.RunGrouped(vizs); err != nil {
							t.Fatal(err)
						}
					})
					t.Logf("%.0f allocations per run", avg)
					if avg > float64(size.budget) {
						t.Errorf("steady-state RunGrouped allocates %.0f objects per run, budget %d", avg, size.budget)
					}
				})
			}
		})
	}
}

// TestSteadyStateAllocsBatch extends the steady-state budget to batches:
// the pipeline's per-run bookkeeping (per-query slots and heaps) scales
// with Q, while per-candidate evaluation stays on
// the pooled evalCtx exactly as in the single-plan kernel. The budget is
// the single-plan budget times Q plus the same per-run overhead — if
// per-candidate garbage crept into the shared-memo path it would blow
// through by an order of magnitude.
func TestSteadyStateAllocsBatch(t *testing.T) {
	const (
		nSeries = 16
		points  = 120
		nq      = 4
		budget  = 12 * nSeries * nq
	)
	series := allocSeries(nSeries, points)
	queries := []string{"u ; d ; u", "d ; u ; d", "u ; d", "u ; d ; u ; d"}
	for _, pruning := range []bool{false, true} {
		t.Run(fmt.Sprintf("pruning=%v", pruning), func(t *testing.T) {
			opts := seqOpts()
			opts.Algorithm = AlgSegmentTree
			opts.Pruning = pruning
			plans := make([]*Plan, nq)
			for i, q := range queries {
				p, err := Compile(regexlang.MustParse(q), opts)
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = p
			}
			mp, err := NewMultiPlan(plans)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plans[0].GroupSeries(series)
			if _, err := mp.RunGroupedContext(context.Background(), vizs); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := mp.RunGroupedContext(context.Background(), vizs); err != nil {
					t.Fatal(err)
				}
			})
			if avg > budget {
				t.Errorf("steady-state batch RunGrouped allocates %.0f objects per run, budget %d", avg, budget)
			}
		})
	}
}

// TestSteadyStateAllocsQuantifier covers the quantifier hot path (pair
// scores, run detection, run scoring), which allocated per evaluated range
// before the pooled kernel.
func TestSteadyStateAllocsQuantifier(t *testing.T) {
	series := allocSeries(8, 100)
	opts := seqOpts()
	opts.Algorithm = AlgSegmentTree
	plan, err := Compile(regexlang.MustParse("[p=up, m={2,}]"), opts)
	if err != nil {
		t.Fatal(err)
	}
	vizs := plan.GroupSeries(series)
	if _, err := plan.RunGrouped(vizs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := plan.RunGrouped(vizs); err != nil {
			t.Fatal(err)
		}
	})
	// The quantifier itself still sorts occurrence scores (one interface
	// allocation per positive evaluation); the budget tolerates that while
	// forbidding the old per-range pair/run slice churn.
	if budget := 60.0 * float64(len(series)); avg > budget {
		t.Errorf("quantifier RunGrouped allocates %.0f objects per run, budget %.0f", avg, budget)
	}
}

// TestPooledKernelMatchesFreshContexts: reusing one evalCtx across many
// candidates must give byte-identical scores and ranges to compiling each
// chain in a fresh context (the pre-pooling behavior preserved by
// compileChain).
func TestPooledKernelMatchesFreshContexts(t *testing.T) {
	series := allocSeries(12, 90)
	for _, q := range []string{"u ; d ; u", "[p=up, m={2,}]", "u ; [p=down, x.s=20, x.e=60] ; u"} {
		for _, alg := range []Algorithm{AlgDP, AlgSegmentTree, AlgGreedy} {
			opts := seqOpts()
			opts.Algorithm = alg
			plan, err := Compile(regexlang.MustParse(q), opts)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plan.GroupSeries(series)
			// Pooled path: one worker context reused across all candidates,
			// exactly like a pipeline worker. Fresh path: a new context per
			// candidate, so no buffer ever carries state across candidates.
			reused := newEvalCtx()
			for vi, v := range vizs {
				pooledSc, pooledRanges := evalViz(reused, v, plan.norm, plan.opts, plan.solver)
				freshSc, freshRanges := evalViz(newEvalCtx(), v, plan.norm, plan.opts, plan.solver)
				if pooledSc != freshSc {
					t.Fatalf("%s/%v viz %d: pooled score %v != fresh score %v", q, alg, vi, pooledSc, freshSc)
				}
				if len(pooledRanges) != len(freshRanges) {
					t.Fatalf("%s/%v viz %d: range count differs", q, alg, vi)
				}
				for i := range pooledRanges {
					if pooledRanges[i] != freshRanges[i] {
						t.Fatalf("%s/%v viz %d: range %d %v != %v", q, alg, vi, i, pooledRanges[i], freshRanges[i])
					}
				}
			}
		}
	}
}
