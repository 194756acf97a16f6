package executor

import (
	"sort"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/shape"
)

// referenceRun is the ground truth the pipeline property tests compare
// against, built from no pipeline code: it forms candidates exactly as
// Plan.RunContext does (groupInput's push-down filter and GROUP
// configuration, group per series, positions kept), scores every candidate sequentially with evalViz on a
// fresh evalCtx under naivePlan — no worker pool, no bound, no pruning, no
// index, no shared memo — and ranks by (score desc, position asc), building
// the top-k with makeResult.
func referenceRun(t *testing.T, series []dataset.Series, q shape.Query, opts Options) []Result {
	t.Helper()
	p, err := Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	series, gcfg := p.groupInput(series)
	np := naivePlan(p)
	type scored struct {
		pos    int
		v      *Viz
		score  float64
		ranges [][2]int
	}
	var all []scored
	for i, s := range series {
		v := group(s, gcfg)
		if v == nil {
			continue
		}
		sc, ranges := evalViz(newEvalCtx(), v, np.norm, np.opts, np.solver)
		all = append(all, scored{pos: i, v: v, score: sc, ranges: ranges})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].pos < all[b].pos
	})
	if len(all) > p.opts.K {
		all = all[:p.opts.K]
	}
	out := make([]Result, len(all))
	for i, c := range all {
		out[i] = makeResult(c.v, c.score, c.ranges)
	}
	return out
}
