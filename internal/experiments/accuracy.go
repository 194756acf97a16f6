package experiments

import (
	"context"
	"fmt"
	"math"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
)

// Table11 lists the evaluation datasets and queries — the reproduction of
// Table 11 itself, with a verification column: the paper required every
// fuzzy query to match at least 20 visualizations with score > 0.
func Table11(cfg Config) Table {
	cfg = cfg.normalized()
	t := Table{
		ID:     "table11",
		Title:  "Datasets and query characteristics (synthetic substitutes)",
		Header: []string{"Dataset", "Visualizations", "Length", "Fuzzy queries", "Positive matches per query"},
	}
	for _, ds := range gen.EvalDatasets() {
		series, err := dataset.Extract(ds.Table, ds.Spec)
		if err != nil {
			panic(err)
		}
		check := series
		if cfg.Quick {
			check = subsample(series, 4)
		}
		var counts []string
		for _, qs := range ds.FuzzyQueries {
			q := regexlang.MustParse(qs)
			opts := baseOptions(cfg)
			opts.Algorithm = executor.AlgSegmentTree
			opts.K = len(check)
			res, err := mustCompile(q, opts).RunContext(context.TODO(), check)
			if err != nil {
				panic(err)
			}
			positive := 0
			for _, r := range res {
				if r.Score > 0 {
					positive++
				}
			}
			counts = append(counts, fmt.Sprintf("%d", positive))
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			fmt.Sprintf("%d", len(series)),
			fmt.Sprintf("%d", series[0].Len()),
			joinWith(ds.FuzzyQueries, " ; "),
			joinWith(counts, " / "),
		})
	}
	t.Notes = append(t.Notes, "paper criterion: every fuzzy query matches ≥ 20 visualizations with score > 0 (≥ 5 in quick mode's 4× subsample)")
	return t
}

// dpScores computes the optimal (DP) score of every visualization — the
// ground truth for Figure 12.
func dpScores(series []dataset.Series, q shape.Query, cfg Config) map[string]float64 {
	opts := baseOptions(cfg)
	opts.Algorithm = executor.AlgDP
	opts.K = len(series)
	res, err := mustCompile(q, opts).RunContext(context.TODO(), series)
	if err != nil {
		panic(err)
	}
	scores := make(map[string]float64, len(res))
	for _, r := range res {
		scores[r.Z] = r.Score
	}
	return scores
}

func ranking(series []dataset.Series, q shape.Query, opts executor.Options) []string {
	res, err := mustCompile(q, opts).RunContext(context.TODO(), series)
	if err != nil {
		panic(err)
	}
	zs := make([]string, len(res))
	for i, r := range res {
		zs[i] = r.Z
	}
	return zs
}

// Fig12 reproduces Figure 12: top-k overlap accuracy of Greedy, SegmentTree
// and DTW against the DP ground truth, for k in {5, 10, 15, 20}, with the
// paper's score-deviation annotation (the relative gap between the optimal
// score of the k-th visualization chosen by the algorithm and by DP).
func Fig12(cfg Config) Table {
	cfg = cfg.normalized()
	t := Table{
		ID:     "fig12",
		Title:  "Top-k accuracy vs DP ground truth (%; parentheses: score deviation of the k-th pick, %)",
		Header: []string{"Dataset", "k", "Greedy", "SegmentTree", "DTW"},
	}
	ks := []int{5, 10, 15, 20}
	for _, set := range prepare(cfg) {
		type perAlg struct{ acc, dev float64 }
		sums := map[string]map[int]*perAlg{}
		algs := []struct {
			name string
			opts func(executor.Options) executor.Options
		}{
			{"Greedy", func(o executor.Options) executor.Options { o.Algorithm = executor.AlgGreedy; return o }},
			{"SegmentTree", func(o executor.Options) executor.Options { o.Algorithm = executor.AlgSegmentTree; return o }},
			{"DTW", func(o executor.Options) executor.Options { o.Algorithm = executor.AlgDTW; return o }},
		}
		for _, a := range algs {
			sums[a.name] = map[int]*perAlg{}
			for _, k := range ks {
				sums[a.name][k] = &perAlg{}
			}
		}
		for _, q := range set.fuzzy {
			truth := dpScores(set.series, q, cfg)
			opts := baseOptions(cfg)
			opts.K = maxInt(ks)
			dpRank := ranking(set.series, q, withAlg(opts, executor.AlgDP))
			for _, a := range algs {
				algRank := ranking(set.series, q, a.opts(opts))
				for _, k := range ks {
					acc, dev := topKOverlap(dpRank, algRank, truth, k)
					sums[a.name][k].acc += acc
					sums[a.name][k].dev += dev
				}
			}
		}
		nq := float64(len(set.fuzzy))
		for _, k := range ks {
			row := []string{set.name, fmt.Sprintf("%d", k)}
			for _, a := range algs {
				s := sums[a.name][k]
				row = append(row, fmt.Sprintf("%s (%s)", pct(s.acc/nq), pct(s.dev/nq)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape (paper): SegmentTree > 85% accuracy with small deviations; Greedy lowest; DTW moderate (40–60%)")
	return t
}

func withAlg(o executor.Options, a executor.Algorithm) executor.Options {
	o.Algorithm = a
	return o
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// topKOverlap returns the percentage of the algorithm's top-k that appears
// in DP's top-k, and the relative deviation (%) between the optimal scores
// of the two k-th picks.
func topKOverlap(dpRank, algRank []string, truth map[string]float64, k int) (acc, dev float64) {
	if k > len(dpRank) {
		k = len(dpRank)
	}
	if k == 0 {
		return 0, 0
	}
	inDP := make(map[string]bool, k)
	for _, z := range dpRank[:k] {
		inDP[z] = true
	}
	match := 0
	algK := k
	if algK > len(algRank) {
		algK = len(algRank)
	}
	for _, z := range algRank[:algK] {
		if inDP[z] {
			match++
		}
	}
	acc = float64(match) / float64(k) * 100

	dpKth := truth[dpRank[k-1]]
	algKth := dpKth
	if algK > 0 {
		algKth = truth[algRank[algK-1]]
	}
	if math.Abs(dpKth) > 1e-9 {
		dev = math.Abs(dpKth-algKth) / math.Abs(dpKth) * 100
	}
	return acc, dev
}
