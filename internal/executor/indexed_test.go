package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
	"shapesearch/internal/shapeindex"
)

func mustParseAll(queries []string) []shape.Query {
	qs := make([]shape.Query, len(queries))
	for i, q := range queries {
		qs[i] = regexlang.MustParse(q)
	}
	return qs
}

// indexedQueries spans the bound regimes the envelope has to dominate:
// plain chains (one bound group, fuzzy runs), longer chains (narrower span
// floor), alternation (per-alternative max), pinned chains (anchored
// reconstruction, raw-extreme fallback), and quantified units (conservative
// [-1,1] unit bounds).
var indexedQueries = []string{
	"u ; d",
	"u ; d ; u ; d",
	"f ; u ; d",
	"(u ; d) | (d ; u)",
	"[p=up, x.s=0, x.e=10] ; d ; u",
	"[p=up, m={2,}] ; d",
}

// indexedCorpora returns the test corpora: randomized mixed regimes (noise,
// monotone drifts, planted peaks), the separated DriftPeaks corpus the
// benchmarks use, and a degenerate all-same corpus where every envelope
// equals its members.
func indexedCorpora() map[string][]dataset.Series {
	out := map[string][]dataset.Series{}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out[fmt.Sprintf("mixed-%d", seed)] = mixedCorpus(rng, 100, 64+rng.Intn(48))
	}
	out["driftpeaks"] = gen.DriftPeaksSeries(400, 32, 6, 1)
	flat := make([]dataset.Series, 12)
	for i := range flat {
		flat[i] = mkSeries(fmt.Sprintf("same%02d", i), 1, 2, 3, 2, 1, 2, 3, 2, 1)
	}
	out["uniform"] = flat
	return out
}

// TestIndexedBoundDominatesSound pins the invariant the whole index stands
// on: for every node of the built index and every compiled query, the
// envelope upper bound must be at least every member's sound upper bound.
// If this ever fails, best-first traversal could skip a subtree holding a
// true top-k member and indexed search would silently stop being lossless.
func TestIndexedBoundDominatesSound(t *testing.T) {
	for name, series := range indexedCorpora() {
		t.Run(name, func(t *testing.T) {
			var plans []*Plan
			for _, query := range indexedQueries {
				opts := DefaultOptions()
				opts.Algorithm = AlgSegmentTree
				opts.Pruning = true
				plan, err := Compile(regexlang.MustParse(query), opts)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
			}
			vizs := plans[0].GroupSeries(series)
			for _, shards := range []int{1, 3} {
				ix := BuildVizIndex(vizs, shards)
				ec := newEvalCtx()
				for qi, plan := range plans {
					o := plan.opts
					ix.ix.Walk(func(env *shapeindex.Summary, members []int32) {
						ec.resetBoundCaches(o.chainMeta)
						envUB := envelopeUpperBound(ec, env, plan.norm, o)
						for _, id := range members {
							ec.resetBoundCaches(o.chainMeta)
							mUB := soundUpperBound(ec, ix.vizs[id], plan.norm, o)
							if envUB < mUB-boundEps {
								t.Fatalf("q=%q shards=%d: envelope bound %.12f < member %d sound bound %.12f",
									indexedQueries[qi], shards, envUB, id, mUB)
							}
						}
					})
				}
			}
		})
	}
}

// TestIndexedSearchMatchesScan is the indexed extension of the lossless
// contract: whatever the worker count, shard count, query shape or k, the
// indexed ranking — identities, order and exact scores — must be
// byte-identical to the unpruned sequential scan. (The unpruned scan is the
// ground truth on purpose: above lazyIndexMinCorpus the pruned scan itself
// routes through the index.)
func TestIndexedSearchMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		series := mixedCorpus(rng, 120, 64+rng.Intn(32))
		for _, query := range indexedQueries {
			q := regexlang.MustParse(query)
			for _, k := range []int{1, 5} {
				base := DefaultOptions()
				base.Algorithm = AlgSegmentTree
				base.Parallelism = 1
				base.K = k
				base.Pruning = false
				want, err := searchSeries(series, q, base)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("seed=%d q=%q k=%d reference", seed, query, k), referenceRun(t, series, q, base), want)
				for _, workers := range []int{1, 4} {
					opts := base
					opts.Pruning = true
					opts.Parallelism = workers
					plan, err := Compile(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					vizs := plan.GroupSeries(series)
					for _, shards := range []int{1, 3} {
						got, err := plan.RunIndexedStatsContext(context.Background(), BuildVizIndex(vizs, shards), nil)
						if err != nil {
							t.Fatal(err)
						}
						assertSameResults(t,
							fmt.Sprintf("seed=%d q=%q k=%d workers=%d shards=%d", seed, query, k, workers, shards),
							want, got)
					}
				}
			}
		}
	}
}

// TestIndexedBatchMatchesScan runs the whole query set as one MultiPlan over
// one shared traversal and demands every query's ranking equal its own
// unpruned sequential scan — the batch path must not let one query's floor
// prune another query's candidates.
func TestIndexedBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	series := mixedCorpus(rng, 150, 80)
	queries := indexedQueries

	opts := DefaultOptions()
	opts.Algorithm = AlgSegmentTree
	opts.Parallelism = 4
	opts.K = 5
	opts.Pruning = true

	mp, err := CompileBatch(mustParseAll(queries), opts)
	if err != nil {
		t.Fatal(err)
	}
	vizs := mp.plans[0].GroupSeries(series)
	for _, shards := range []int{1, 3} {
		got, err := mp.RunIndexedContext(context.Background(), BuildVizIndex(vizs, shards))
		if err != nil {
			t.Fatal(err)
		}
		for qi, query := range queries {
			base := opts
			base.Parallelism = 1
			base.Pruning = false
			want, err := searchSeries(series, regexlang.MustParse(query), base)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, fmt.Sprintf("shards=%d q=%q reference", shards, query), referenceRun(t, series, regexlang.MustParse(query), base), want)
			assertSameResults(t, fmt.Sprintf("shards=%d q=%q", shards, query), want, got[qi])
		}
	}
}

// TestLargeCorpusIndexedSmoke exercises the lazy auto-index path (corpus
// above lazyIndexMinCorpus) end to end on a separated corpus and checks the
// index actually skips work: results identical to the unpruned scan, and
// strictly fewer members visited than the corpus holds.
func TestLargeCorpusIndexedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-corpus smoke test skipped in -short mode")
	}
	series := gen.DriftPeaksSeries(6000, 32, 12, 7)
	q := regexlang.MustParse("u ; d ; u")

	base := DefaultOptions()
	base.Algorithm = AlgSegmentTree
	base.Parallelism = 4
	base.K = 10
	base.Pruning = false
	want, err := searchSeries(series, q, base)
	if err != nil {
		t.Fatal(err)
	}

	// Pruned Plan.RunContext auto-indexes at this size — the path servers
	// without a prebuilt index take.
	opts := base
	opts.Pruning = true
	plan, err := Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.RunContext(context.Background(), series)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "lazy auto-index", want, got)

	// Explicit index with stats: the envelope bounds must skip part of the
	// corpus outright on a separated workload.
	var st IndexStats
	got, err = plan.RunIndexedStatsContext(context.Background(), BuildVizIndex(plan.GroupSeries(series), 0), &st)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "explicit index", want, got)
	if st.Candidates != 6000 {
		t.Fatalf("Candidates = %d, want 6000", st.Candidates)
	}
	if st.Visited >= st.Candidates {
		t.Fatalf("index visited the whole corpus (%d of %d) — envelope bounds skipped nothing",
			st.Visited, st.Candidates)
	}
	t.Logf("visited %d of %d candidates (%d leaves, %d scored)",
		st.Visited, st.Candidates, st.Leaves, st.Scored)
}
