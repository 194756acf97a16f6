package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shapeindex"
)

// perturb extends a series with extra points (an append) and returns the
// re-grouped replacement the update path would install.
func perturb(rng *rand.Rand, s dataset.Series, extra int) dataset.Series {
	xs := append([]float64(nil), s.X...)
	ys := append([]float64(nil), s.Y...)
	last := xs[len(xs)-1]
	for i := 0; i < extra; i++ {
		last++
		xs = append(xs, last)
		ys = append(ys, ys[len(ys)-1]+rng.NormFloat64())
	}
	return dataset.Series{Z: s.Z, X: xs, Y: ys}
}

// TestIndexUpdateEnvelopeDominance extends the PR 7 dominance suite to
// patched envelopes: after random sequences of VizIndex.Update calls —
// replacements (grown series), appended candidates, ungroupable slots —
// every node envelope of the patched index must still dominate every member
// beneath it for every query, and indexed search over the patched index
// must stay byte-identical to the flat unpruned scan over the same slice.
func TestIndexUpdateEnvelopeDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
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
	series := mixedCorpus(rng, 90, 48+rng.Intn(32))
	for _, shards := range []int{1, 3} {
		vizs := plans[0].GroupSeries(series)
		ix := BuildVizIndex(vizs, shards)
		for step := 0; step < 3; step++ {
			next := append([]*Viz(nil), ix.vizs...)
			var changed []int
			gcfg := groupConfig{zNormalize: true}
			for i := rng.Intn(6); i >= 0; i-- {
				id := rng.Intn(len(next))
				if next[id] == nil {
					continue
				}
				next[id] = group(perturb(rng, next[id].Series, 1+rng.Intn(8)), gcfg)
				changed = append(changed, id)
			}
			if rng.Intn(3) == 0 && len(changed) > 0 {
				next[changed[0]] = nil // group shrank below the viz minimum
			}
			for i := rng.Intn(4); i > 0; i-- {
				s := randomSeries(rng, 40+rng.Intn(20))
				s.Z = fmt.Sprintf("new-%d-%d-%d", shards, step, i)
				changed = append(changed, len(next))
				next = append(next, group(s, gcfg))
			}
			upd := ix.Update(next, changed)
			if upd.Staleness() <= ix.Staleness() {
				t.Fatalf("shards=%d step %d: staleness did not grow", shards, step)
			}
			ec := newEvalCtx()
			for qi, plan := range plans {
				o := plan.opts
				upd.ix.Walk(func(env *shapeindex.Summary, members []int32) {
					ec.resetBoundCaches(o.chainMeta)
					envUB := envelopeUpperBound(ec, env, plan.norm, o)
					for _, id := range members {
						if upd.vizs[id] == nil {
							continue // folds unboundable; nothing to dominate
						}
						ec.resetBoundCaches(o.chainMeta)
						mUB := soundUpperBound(ec, upd.vizs[id], plan.norm, o)
						if envUB < mUB-boundEps {
							t.Fatalf("q=%q shards=%d step %d: patched envelope bound %.12f < member %d sound bound %.12f",
								indexedQueries[qi], shards, step, envUB, id, mUB)
						}
					}
				})
				got, err := plan.RunIndexedStatsContext(context.Background(), upd, nil)
				if err != nil {
					t.Fatal(err)
				}
				scanOpts := *o
				scanOpts.Pruning = false
				scanPlan, err := Compile(regexlang.MustParse(indexedQueries[qi]), scanOpts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := scanPlan.RunGrouped(upd.vizs)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("q=%q shards=%d step=%d", indexedQueries[qi], shards, step), want, got)
			}
			ix = upd
		}
	}
}
