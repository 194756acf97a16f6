package executor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
)

// poolConfigPlans compiles one plan per GROUP configuration the pool must
// keep apart: z-normalized, unnormalized (y constraints), and skip windows
// (every segment pinned, push-down on).
func poolConfigPlans(t *testing.T) map[string]*Plan {
	t.Helper()
	plans := make(map[string]*Plan)
	for name, q := range map[string]string{
		"znorm":   "u ; d",
		"raw":     "[p{up},y.s=1,y.e=5]",
		"skipwin": "[p=up, x.s=10, x.e=40] ; [p=down, x.s=40, x.e=70]",
	} {
		p, err := Compile(regexlang.MustParse(q), seqOpts())
		if err != nil {
			t.Fatal(err)
		}
		plans[name] = p
	}
	return plans
}

// requireSameViz checks that a pooled chart equals a freshly grouped one
// field by field, bit for bit: both sides of GROUP's output.
func requireSameViz(t *testing.T, label string, got, want *Viz) {
	t.Helper()
	if got.Series.Z != want.Series.Z || !sameBits(got.Series.X, want.Series.X) || !sameBits(got.Series.Y, want.Series.Y) {
		t.Fatalf("%s: series differ", label)
	}
	if !sameBits(got.nx, want.nx) {
		t.Fatalf("%s: normalized x differs", label)
	}
	if len(got.xsums) != len(want.xsums) || len(got.ysums) != len(want.ysums) {
		t.Fatalf("%s: prefix lengths %d/%d, want %d/%d", label, len(got.xsums), len(got.ysums), len(want.xsums), len(want.ysums))
	}
	for i := range got.xsums {
		g, w := got.xsums[i], want.xsums[i]
		if !sameBits([]float64{g.N, g.SumX, g.SumXX}, []float64{w.N, w.SumX, w.SumXX}) {
			t.Fatalf("%s: xsums[%d] = %+v, want %+v", label, i, g, w)
		}
	}
	for i := range got.ysums {
		g, w := got.ysums[i], want.ysums[i]
		if !sameBits([]float64{g.SumY, g.SumXY}, []float64{w.SumY, w.SumXY}) {
			t.Fatalf("%s: ysums[%d] = %+v, want %+v", label, i, g, w)
		}
	}
	if got.znorm != want.znorm || !sameBits([]float64{got.ymean, got.ystd}, []float64{want.ymean, want.ystd}) {
		t.Fatalf("%s: z-normalization differs", label)
	}
	if !slices.Equal(got.Skipped, want.Skipped) || (got.Skipped == nil) != (want.Skipped == nil) || !slices.Equal(got.skipPre, want.skipPre) {
		t.Fatalf("%s: skip masks differ", label)
	}
}

// TestPooledGroupMatchesGroup: pooled grouping returns exactly what plain
// grouping builds, under every GROUP configuration; a second pass over
// equal content (fresh slices, same bits) hands back the same charts; and
// equal content under another configuration never shares a chart.
func TestPooledGroupMatchesGroup(t *testing.T) {
	series := allocSeries(40, 80)
	series = append(series, mkSeries("short", 1)) // groups to nil
	var pool VizPool
	first := make(map[string][]*Viz)
	for name, p := range poolConfigPlans(t) {
		want := p.GroupSeries(series)
		got := p.GroupSeriesPooled(&pool, series)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pooled charts, want %d", name, len(got), len(want))
		}
		for i := range want {
			requireSameViz(t, fmt.Sprintf("%s viz %d", name, i), got[i], want[i])
		}
		again := p.GroupSeriesPooled(&pool, cloneSeries(series))
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("%s viz %d: equal content grouped twice gave two charts", name, i)
			}
		}
		first[name] = got
	}
	for a, va := range first {
		for b, vb := range first {
			for i := range va {
				if a != b && i < len(vb) && va[i] == vb[i] {
					t.Fatalf("configurations %s and %s share chart %d", a, b, i)
				}
			}
		}
	}
}

// TestPooledGroupKeepsSignedZeroApart: content is compared bit for bit, so
// a series differing only in the sign of a zero is another chart.
func TestPooledGroupKeepsSignedZeroApart(t *testing.T) {
	p, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	pos := mkSeries("a", 0, 1, 2, 0)
	neg := mkSeries("a", math.Copysign(0, -1), 1, 2, 0)
	var pool VizPool
	a := p.GroupSeriesPooled(&pool, []dataset.Series{pos})
	b := p.GroupSeriesPooled(&pool, []dataset.Series{neg})
	if a[0] == b[0] {
		t.Fatal("series differing in the sign of a zero share one chart")
	}
	if math.Signbit(b[0].Series.Y[0]) != true {
		t.Fatal("the −0 series got the +0 series' chart")
	}
}

func cloneSeries(series []dataset.Series) []dataset.Series {
	out := make([]dataset.Series, len(series))
	for i, s := range series {
		out[i] = dataset.Series{Z: s.Z, X: slices.Clone(s.X), Y: slices.Clone(s.Y)}
	}
	return out
}

// TestVizPoolHoldsWeakly: once the caller drops the charts a fill returned,
// a collection frees them; the pool keeps nothing alive.
func TestVizPoolHoldsWeakly(t *testing.T) {
	p, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	var pool VizPool
	w := func() weak.Pointer[Viz] {
		return weak.Make(p.GroupSeriesPooled(&pool, allocSeries(8, 40))[3])
	}()
	for i := 0; i < 3 && w.Value() != nil; i++ {
		runtime.GC()
	}
	if w.Value() != nil {
		t.Fatal("a pooled chart no caller holds survived three collections")
	}
}

// TestVizPoolSweepBounded: over repeated fill, drop and collect cycles, the
// pool stays within a small multiple of what is live (the held first fill
// plus the newest cycle's charts) instead of growing with every cycle:
// charts under fresh z values each cycle bound the key count, and new
// content under the held z values bounds their entry lists.
func TestVizPoolSweepBounded(t *testing.T) {
	p, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	var pool VizPool
	const perCycle = 30
	live := p.GroupSeriesPooled(&pool, allocSeries(perCycle, 24))
	for cycle := 0; cycle < 60; cycle++ {
		fresh := allocSeries(perCycle, 24)
		for i := range fresh {
			fresh[i].Z = fmt.Sprintf("c%d-%d", cycle, i)
		}
		variants := allocSeries(perCycle, 24)
		for i := range variants {
			variants[i].Y[0] += float64(cycle + 1)
		}
		if n := len(p.GroupSeriesPooled(&pool, fresh)) + len(p.GroupSeriesPooled(&pool, variants)); n != 2*perCycle {
			t.Fatalf("cycle %d: %d charts, want %d", cycle, n, 2*perCycle)
		}
		runtime.GC()
		pool.mu.Lock()
		keys, entries, chained := len(pool.heads), len(pool.slab)-len(pool.free), 0
		for _, i := range pool.heads {
			for ; i >= 0; i = pool.slab[i].next {
				chained++
			}
		}
		pool.mu.Unlock()
		if chained != entries {
			t.Fatalf("cycle %d: %d entries in use, %d reachable from the chains", cycle, entries, chained)
		}
		if keys > 4*perCycle || entries > 6*perCycle {
			t.Fatalf("cycle %d: pool holds %d keys and %d entries, at most %d of them live", cycle, keys, entries, 3*perCycle)
		}
	}
	// The first fill's charts are still held, so they are still shared.
	again := p.GroupSeriesPooled(&pool, allocSeries(perCycle, 24))
	for i := range live {
		if again[i] != live[i] {
			t.Fatalf("held chart %d was dropped from the pool", i)
		}
	}
}

// TestVizPoolConcurrentFills: fills racing on one pool return charts equal
// to plain grouping, and equal content ends up as one chart whichever fill
// pooled it first.
func TestVizPoolConcurrentFills(t *testing.T) {
	p, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := allocSeries(60, 32)
	want := p.GroupSeries(series)
	var pool VizPool
	const fills = 8
	got := make([][]*Viz, fills)
	var wg sync.WaitGroup
	for f := 0; f < fills; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each fill sees the corpus from a different offset, so lookups
			// and inserts of the same z interleave.
			own := cloneSeries(series)
			rot := append(own[f*7%len(own):], own[:f*7%len(own)]...)
			vs := p.GroupSeriesPooled(&pool, rot)
			for i := 0; i < 3; i++ {
				vs[i].pruneSlopeStats()
			}
			got[f] = vs
		}()
	}
	wg.Wait()
	byZ := make(map[string]*Viz)
	for f, vs := range got {
		for _, v := range vs {
			if prev, ok := byZ[v.Series.Z]; ok && prev != v {
				t.Fatalf("fill %d: z %s grouped into two charts", f, v.Series.Z)
			}
			byZ[v.Series.Z] = v
		}
	}
	for i, w := range want {
		requireSameViz(t, fmt.Sprintf("viz %d", i), byZ[w.Series.Z], w)
	}
}
