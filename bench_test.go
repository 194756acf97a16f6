// Benchmarks mirroring every table and figure of the paper's evaluation.
// Each benchmark exercises the code path that regenerates the corresponding
// artifact on a reduced workload; cmd/experiments runs the full-scale
// versions and prints the tables themselves.
package shapesearch_test

import (
	"context"
	"fmt"
	"testing"

	"shapesearch"
	"shapesearch/internal/crf"
	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/gen"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/regexlang"
)

// benchSeries extracts a subsampled dataset once.
func benchSeries(b *testing.B, ds gen.EvalDataset, factor int) []dataset.Series {
	b.Helper()
	series, err := dataset.Extract(ds.Table, ds.Spec)
	if err != nil {
		b.Fatal(err)
	}
	if factor > 1 {
		sub := make([]dataset.Series, 0, len(series)/factor+1)
		for i := 0; i < len(series); i += factor {
			sub = append(sub, series[i])
		}
		series = sub
	}
	return series
}

func benchOpts(alg executor.Algorithm, pruning bool) executor.Options {
	o := executor.DefaultOptions()
	o.Algorithm = alg
	o.Pruning = pruning
	o.Parallelism = 1
	return o
}

func runSearch(b *testing.B, series []dataset.Series, query string, opts executor.Options) {
	b.Helper()
	q := regexlang.MustParse(query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shapesearch.SearchSeriesContext(context.Background(), series, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 measures the Figure 10 algorithm lineup on the Weather
// substitute (the full five-dataset sweep is cmd/experiments -run fig10).
func BenchmarkFig10(b *testing.B) {
	series := benchSeries(b, gen.Weather(), 4)
	const query = "(θ = 45° ⊗ d ⊗ u ⊗ d)"
	for _, alg := range []struct {
		name    string
		alg     executor.Algorithm
		pruning bool
	}{
		{"DP", executor.AlgDP, false},
		{"DTW", executor.AlgDTW, false},
		{"Greedy", executor.AlgGreedy, false},
		{"SegmentTree", executor.AlgSegmentTree, false},
		{"SegmentTreePruned", executor.AlgSegmentTree, true},
	} {
		b.Run(alg.name, func(b *testing.B) {
			runSearch(b, series, query, benchOpts(alg.alg, alg.pruning))
		})
	}
}

// BenchmarkFig11 measures end-to-end non-fuzzy queries (EXTRACT through
// SCORE) with and without push-down (Figure 11), on the Haptics substitute
// whose pinned window is the most selective: push-down (a)/(c) prunes rows
// at extraction.
func BenchmarkFig11_Pushdown(b *testing.B) {
	ds := gen.Haptics()
	q := regexlang.MustParse("[p{up},x.s=60,x.e=80]")
	for _, pd := range []struct {
		name string
		on   bool
	}{{"On", true}, {"Off", false}} {
		b.Run(pd.name, func(b *testing.B) {
			opts := benchOpts(executor.AlgAuto, false)
			opts.Pushdown = pd.on
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shapesearch.SearchContext(context.Background(), ds.Table, ds.Spec, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12 measures the accuracy-comparison path: DP ground truth
// plus a contender ranking on one dataset/query pair.
func BenchmarkFig12_Accuracy(b *testing.B) {
	series := benchSeries(b, gen.Weather(), 8)
	q := regexlang.MustParse("(f ⊗ u ⊗ d ⊗ f)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := benchOpts(executor.AlgDP, false)
		opts.K = 20
		if _, err := shapesearch.SearchSeriesContext(context.Background(), series, q, opts); err != nil {
			b.Fatal(err)
		}
		opts.Algorithm = executor.AlgSegmentTree
		if _, err := shapesearch.SearchSeriesContext(context.Background(), series, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13a sweeps trendline length (Figure 13a) for DP and
// SegmentTree on Worms prefixes.
func BenchmarkFig13a_Points(b *testing.B) {
	series := benchSeries(b, gen.Worms(), 16)
	for _, n := range []int{100, 300, 900} {
		prefixes := make([]dataset.Series, len(series))
		for i, s := range series {
			m := n
			if m > s.Len() {
				m = s.Len()
			}
			prefixes[i] = dataset.Series{Z: s.Z, X: s.X[:m], Y: s.Y[:m]}
		}
		for _, alg := range []struct {
			name string
			a    executor.Algorithm
		}{{"DP", executor.AlgDP}, {"SegmentTree", executor.AlgSegmentTree}} {
			b.Run(fmt.Sprintf("%s/n=%d", alg.name, n), func(b *testing.B) {
				runSearch(b, prefixes, "u ; d ; u ; d", benchOpts(alg.a, false))
			})
		}
	}
}

// BenchmarkFig13b sweeps the number of ShapeSegments (Figure 13b).
func BenchmarkFig13b_Segments(b *testing.B) {
	series := benchSeries(b, gen.Weather(), 8)
	queries := map[int]string{2: "u;d", 4: "u;d;u;d", 6: "u;d;u;d;u;d"}
	for _, k := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runSearch(b, series, queries[k], benchOpts(executor.AlgSegmentTree, false))
		})
	}
}

// BenchmarkFig13c sweeps collection size (Figure 13c) on Real Estate.
func BenchmarkFig13c_Collection(b *testing.B) {
	series := benchSeries(b, gen.RealEstate(), 1)
	for _, n := range []int{100, 400} {
		sub := series[:n]
		b.Run(fmt.Sprintf("viz=%d", n), func(b *testing.B) {
			runSearch(b, sub, "u ; d ; u ; d", benchOpts(executor.AlgSegmentTree, false))
		})
	}
}

// BenchmarkTable8_TaskSuite measures the end-to-end engine latency on a
// Table 10-style task query (the Table 8 / Fig 9b machine analog).
func BenchmarkTable8_TaskSuite(b *testing.B) {
	tbl := gen.Stocks(48, 120, 3)
	spec := shapesearch.ExtractSpec{Z: "symbol", X: "day", Y: "price"}
	series, err := shapesearch.Extract(tbl, spec)
	if err != nil {
		b.Fatal(err)
	}
	runSearch(b, series, "[p=up, m={2,}] & [p=down, m={2,}]", benchOpts(executor.AlgSegmentTree, false))
}

// BenchmarkFig9a_ScoringAccuracy measures the §7.3 scoring-function path:
// the optimal DP ranking used for the red accuracy bars.
func BenchmarkFig9a_ScoringAccuracy(b *testing.B) {
	tbl := gen.Stocks(32, 120, 3)
	series, err := shapesearch.Extract(tbl, shapesearch.ExtractSpec{Z: "symbol", X: "day", Y: "price"})
	if err != nil {
		b.Fatal(err)
	}
	runSearch(b, series, "u ; f ; d", benchOpts(executor.AlgDP, false))
}

// BenchmarkTable11_QueryVerification measures the Table 11 verification
// pass (positive-match counting) on one dataset.
func BenchmarkTable11_QueryVerification(b *testing.B) {
	ds := gen.Weather()
	series := benchSeries(b, ds, 8)
	q := regexlang.MustParse(ds.FuzzyQueries[0])
	opts := benchOpts(executor.AlgSegmentTree, false)
	opts.K = len(series)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := shapesearch.SearchSeriesContext(context.Background(), series, q, opts)
		if err != nil {
			b.Fatal(err)
		}
		positive := 0
		for _, r := range res {
			if r.Score > 0 {
				positive++
			}
		}
		if positive == 0 {
			b.Fatal("no positive matches")
		}
	}
}

// BenchmarkCRF_Train measures the Section 4 CRF training path.
func BenchmarkCRF_Train(b *testing.B) {
	corpus := nlparser.GenerateCorpus(60, 42)
	seqs := nlparser.ToSequences(corpus)
	cfg := crf.DefaultTrainConfig()
	cfg.Iterations = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crf.Train(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNLParse measures natural-language parsing latency.
func BenchmarkNLParse(b *testing.B) {
	p := nlparser.NewParser()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Parse("show me genes that are rising, then going down, and then increasing"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegexParse measures visual-regex parsing latency.
func BenchmarkRegexParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := regexlang.Parse("[x.s=2, x.e=5, p=up, m=>>] ; (d | f) ; [p=up, m={2,5}]"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleViz isolates per-visualization segmentation cost for the
// two main engines (the unit underlying every runtime figure).
func BenchmarkSingleViz(b *testing.B) {
	series := benchSeries(b, gen.Worms(), 256)[:1]
	for _, alg := range []struct {
		name string
		a    executor.Algorithm
	}{{"DP", executor.AlgDP}, {"SegmentTree", executor.AlgSegmentTree}, {"Greedy", executor.AlgGreedy}} {
		b.Run(alg.name, func(b *testing.B) {
			runSearch(b, series, "u ; d ; u", benchOpts(alg.a, false))
		})
	}
}

// BenchmarkAblation_MinSegmentFrac measures the cost/effect of the
// perceptibility floor (the floor plays the paper's binning-width role;
// smaller floors mean finer SegmentTree leaves and more DP candidates).
func BenchmarkAblation_MinSegmentFrac(b *testing.B) {
	series := benchSeries(b, gen.Worms(), 16)
	for _, frac := range []float64{0.01, 0.05, 0.10} {
		b.Run(fmt.Sprintf("frac=%v", frac), func(b *testing.B) {
			opts := benchOpts(executor.AlgSegmentTree, false)
			opts.MinSegmentFrac = frac
			runSearch(b, series, "u ; d ; u ; d", opts)
		})
	}
}

// BenchmarkAblation_Parallelism measures the pipelined executor's worker
// scaling across visualizations.
func BenchmarkAblation_Parallelism(b *testing.B) {
	series := benchSeries(b, gen.FiftyWords(), 4)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchOpts(executor.AlgSegmentTree, false)
			opts.Parallelism = workers
			runSearch(b, series, "d ; u ; f", opts)
		})
	}
}

// BenchmarkAblation_Pruning isolates the collective pruning (bound-first
// scan plus deferred exact verification) effect at full collection size (Fig 13c's widening-gap claim). With
// Parallelism 1 this is the old sequential searchPruned path, now served
// by the unified shared-threshold pipeline.
func BenchmarkAblation_Pruning(b *testing.B) {
	series := benchSeries(b, gen.RealEstate(), 1)
	for _, pruning := range []bool{false, true} {
		b.Run(fmt.Sprintf("pruning=%v", pruning), func(b *testing.B) {
			runSearch(b, series, "u ; d ; u ; d", benchOpts(executor.AlgSegmentTree, pruning))
		})
	}
}

// BenchmarkCompile isolates query-plan compilation cost: validation,
// normalization, solver selection and nested sub-query pre-compilation —
// the work Compile hoists out of the per-request path.
func BenchmarkCompile(b *testing.B) {
	for _, q := range []struct{ name, query string }{
		{"Fuzzy", "u ; d ; u ; d"},
		{"Operators", "[x.s=2, x.e=5, p=up, m=>>] ; (d | f) ; [p=up, m={2,5}]"},
	} {
		parsed := regexlang.MustParse(q.query)
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := executor.Compile(parsed, executor.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanReuse compares re-compiling per call
// (SearchSeriesContext) against compiling once and reusing the plan — the repeated-query
// serving pattern.
func BenchmarkPlanReuse(b *testing.B) {
	series := benchSeries(b, gen.Weather(), 8)
	q := regexlang.MustParse("u ; d ; u")
	opts := benchOpts(executor.AlgSegmentTree, false)
	b.Run("Recompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := shapesearch.SearchSeriesContext(context.Background(), series, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Precompiled", func(b *testing.B) {
		plan, err := executor.Compile(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunContext(context.Background(), series); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PrecompiledGrouped", func(b *testing.B) {
		plan, err := executor.Compile(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		vizs := plan.GroupSeries(series)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.RunGrouped(vizs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// batchQueryPool is the BenchmarkSearchBatch workload: related fuzzy
// queries (variants of rise/fall intents) — the fan-out traffic shape the
// batch executor exists for, with heavy unit-signature overlap.
var batchQueryPool = []string{
	"u ; d", "d ; u", "u ; d ; u", "d ; u ; d",
	"u ; d ; u ; d", "u ; f ; d", "d ; f ; u", "f ; u ; d",
	"u ; d ; f", "u? ; d ; u", "u ; d? ; u", "(u | d) ; f",
	"u ; (f | d)", "d ; u ; f", "f ; d ; u", "u ; f ; u",
}

// BenchmarkSearchBatch compares Q related queries executed as one
// MultiPlan pass against Q sequential Plan.SearchContext calls — the serving
// comparison: sequential pays EXTRACT + GROUP + SEGMENT + SCORE per
// query, the batch pays extraction and grouping once and shares
// per-candidate segmentation state, memo entries and bound caches across
// every query. Same corpus, byte-identical per-query results, measured at
// Q = 4 and 16 on the Weather substitute.
func BenchmarkSearchBatch(b *testing.B) {
	ds := gen.Weather()
	ix := dataset.BuildIndex(ds.Table)
	for _, nq := range []int{4, 16} {
		qs := make([]shapesearch.Query, nq)
		for i, s := range batchQueryPool[:nq] {
			qs[i] = regexlang.MustParse(s)
		}
		opts := benchOpts(executor.AlgSegmentTree, false)
		plans := make([]*executor.Plan, nq)
		for i, q := range qs {
			p, err := executor.Compile(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			plans[i] = p
		}
		b.Run(fmt.Sprintf("Q=%d/Sequential", nq), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					if _, err := p.SearchContext(context.Background(), ix, ds.Spec); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("Q=%d/Batch", nq), func(b *testing.B) {
			mp, err := executor.NewMultiPlan(plans)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mp.SearchContext(context.Background(), ix, ds.Spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchPruned measures the lossless-pruning speedup on a
// separated workload (gen.DriftPeaks): a drifting bulk whose sound score
// upper bound falls below the floor set by a few planted peaks. This is the
// regime pruning exists for — the ablation benchmark above shows the
// no-separation regime, where a lossless pruner cannot skip much.
func BenchmarkSearchPruned(b *testing.B) {
	tbl := gen.DriftPeaks(400, 256, 11)
	series, err := dataset.Extract(tbl, dataset.ExtractSpec{Z: "series", X: "t", Y: "v"})
	if err != nil {
		b.Fatal(err)
	}
	for _, pruning := range []bool{false, true} {
		b.Run(fmt.Sprintf("pruning=%v", pruning), func(b *testing.B) {
			runSearch(b, series, "u ; d ; u ; d", benchOpts(executor.AlgSegmentTree, pruning))
		})
	}
}

// BenchmarkIndexScaling measures the corpus shape index's headline claim:
// on a separated corpus whose strong set does not grow with N (a fixed
// number of planted zigzags over a drifting bulk), indexed search grows
// sub-linearly — a 10× corpus should cost well under 10× latency because
// envelope bounds skip whole subtrees, and the visited fraction should
// fall as N grows. The Scan sub-benchmark is the flat bound-first pruned
// scan over the same pre-grouped candidates (DisableAutoIndex keeps it off
// the index), the O(N) path the index replaces. Corpus generation, grouping
// and the index build all sit outside the timer: the index is
// query-independent and built once per corpus, the serving pattern.
func BenchmarkIndexScaling(b *testing.B) {
	q := regexlang.MustParse("u ; d ; u")
	for _, n := range []int{100_000, 1_000_000} {
		series := gen.DriftPeaksSeries(n, 16, 64, 9)
		opts := benchOpts(executor.AlgSegmentTree, true)
		plan, err := executor.Compile(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		vizs := plan.GroupSeries(series)
		ix := executor.BuildVizIndex(vizs, 0)
		b.Run(fmt.Sprintf("N=%d/Indexed", n), func(b *testing.B) {
			var st executor.IndexStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunIndexedStatsContext(context.Background(), ix, &st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Visited)/float64(st.Candidates), "visited-frac")
		})
		flatOpts := opts
		flatOpts.DisableAutoIndex = true
		flat, err := executor.Compile(q, flatOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/Scan", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := flat.RunGrouped(vizs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPruning_SharedThreshold measures the unified pruned pipeline's
// worker scaling: all workers share one top-k heap whose floor is the live
// pruning threshold, so pruning and parallelism compose (they used to be
// mutually exclusive).
func BenchmarkPruning_SharedThreshold(b *testing.B) {
	series := benchSeries(b, gen.RealEstate(), 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchOpts(executor.AlgSegmentTree, true)
			opts.Parallelism = workers
			runSearch(b, series, "u ; d ; u ; d", opts)
		})
	}
}
