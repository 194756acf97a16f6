package executor

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
	"shapesearch/internal/sketch"
)

// keptAnglesQueries are the query sets the kept-table tests run: a long
// bare chain, a fuzzy one, an OR, a blurry sketch (the W of the serving
// benchmark's mix) and a four-query batch. Every query is bare, so the
// tiling tier applies on 12-point charts.
func keptAnglesQueries(t *testing.T) map[string][]shape.Query {
	t.Helper()
	w, err := sketch.BlurryQuery([]shape.Point{{X: 0, Y: 10}, {X: 2.75, Y: 0}, {X: 5.5, Y: 8}, {X: 8.25, Y: 0}, {X: 11, Y: 10}},
		sketch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]shape.Query{
		"zigzag": {regexlang.MustParse("u ; d ; u ; d ; u")},
		"fuzzy":  {regexlang.MustParse("u? ; d ; u? ; d ; u?")},
		"or":     {regexlang.MustParse("(u ; d) | (d ; u)")},
		"sketch": {w},
		"batch":  mustParseAll([]string{"u ; d", "d ; u", "u ; d ; u", "d ; u ; d"}),
	}
}

// keptStocks is the short-chart corpus of the kept-table tests.
func keptStocks(t *testing.T) []dataset.Series {
	t.Helper()
	series, err := dataset.Extract(gen.Stocks(300, 12, 1), dataset.ExtractSpec{Z: "symbol", X: "day", Y: "price"})
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// keptRun runs the pruned batch of plans once over vizs, through the flat
// scan or, when ix is non-nil, the index traversal.
func keptRun(t *testing.T, plans []*Plan, vizs []*Viz, ix *VizIndex, st *IndexStats) [][]Result {
	t.Helper()
	var res [][]Result
	var err error
	if ix != nil {
		res, err = traverse(context.Background(), plans, ix, st)
	} else {
		res, err = scan(context.Background(), plans, len(vizs), func(i int) *Viz { return vizs[i] })
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireKeptTables checks every viz's kept table against its run count:
// a viz keeps a table exactly when two or more runs needed its angles, and
// a kept table is fillRangeAngles' output bit for bit, NaN included. It
// returns how many vizs keep one.
func requireKeptTables(t *testing.T, label string, vizs []*Viz) int {
	t.Helper()
	ec := newEvalCtx()
	kept := 0
	for i, v := range vizs {
		table, runs := v.keptRangeAngles(), v.tileRuns.Load()
		if (table != nil) != (runs >= 2) {
			t.Fatalf("%s: viz %d needed its angles in %d runs and keeps a table: %v", label, i, runs, table != nil)
		}
		if table == nil {
			continue
		}
		kept++
		ec.fillRangeAngles(v)
		if len(table) != len(ec.tileAngle) {
			t.Fatalf("%s: viz %d keeps %d angles, want %d", label, i, len(table), len(ec.tileAngle))
		}
		for r, a := range ec.tileAngle {
			if math.Float64bits(table[r]) != math.Float64bits(a) {
				t.Fatalf("%s: viz %d range %d: kept angle %v, fillRangeAngles %v", label, i, r, table[r], a)
			}
		}
	}
	return kept
}

// TestKeptRangeAngles: a viz keeps its range-angle table from the second
// pruned run whose tiling tier needs it, and nothing a run returns changes.
// Over gen.Stocks(300, 12, 1), each query set runs three times on fresh
// vizs, through the flat scan and a one-shard index, at 1 and 4 workers:
// after run 1 no viz keeps a table; after runs 2 and 3 a viz keeps one
// exactly when two runs needed its angles, equal to fillRangeAngles bit for
// bit — where the run order is deterministic (one worker, or the one-shard
// index, which runs one) that is every viz run 1 took to the tier; every
// run's results are referenceRun's; and the index scores the same
// candidates exactly in every run. A table, once kept, is never replaced.
func TestKeptRangeAngles(t *testing.T) {
	series := keptStocks(t)
	for name, queries := range keptAnglesQueries(t) {
		ref := DefaultOptions()
		ref.Parallelism = 1
		want := make([][]Result, len(queries))
		for q, query := range queries {
			want[q] = referenceRun(t, series, query, ref)
		}
		for _, indexed := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s indexed=%v workers=%d", name, indexed, workers)
				opts := DefaultOptions()
				opts.Parallelism = workers
				opts.Pruning = true
				plans := make([]*Plan, len(queries))
				for q, query := range queries {
					p, err := Compile(query, opts)
					if err != nil {
						t.Fatal(err)
					}
					plans[q] = p
				}
				mp, err := NewMultiPlan(plans)
				if err != nil {
					t.Fatal(err)
				}
				vizs := plans[0].GroupSeries(series)
				var ix *VizIndex
				if indexed {
					ix = BuildVizIndex(vizs, 1)
				}
				deterministic := indexed || workers == 1
				var reached []bool // vizs run 1 took to the tiling tier
				var scored int
				var tables [][]float64
				for run := 1; run <= 3; run++ {
					var st IndexStats
					res := keptRun(t, mp.plans, vizs, ix, &st)
					for q := range queries {
						requireSameResults(t, fmt.Sprintf("%s run %d query %d", label, run, q), want[q], res[q])
					}
					if indexed {
						if run == 1 {
							scored = st.Scored
						} else if st.Scored != scored {
							t.Fatalf("%s run %d: scored %d candidates exactly, run 1 scored %d", label, run, st.Scored, scored)
						}
					}
					kept := requireKeptTables(t, fmt.Sprintf("%s run %d", label, run), vizs)
					switch run {
					case 1:
						reached = make([]bool, len(vizs))
						n := 0
						for i, v := range vizs {
							reached[i] = v.tileRuns.Load() == 1
							if reached[i] {
								n++
							}
						}
						if kept != 0 || n == 0 {
							t.Fatalf("%s run 1: %d vizs keep a table and %d reached the tier", label, kept, n)
						}
					case 2:
						tables = make([][]float64, len(vizs))
						for i, v := range vizs {
							tables[i] = v.keptRangeAngles()
							if deterministic && (tables[i] != nil) != reached[i] {
								t.Fatalf("%s run 2: viz %d keeps a table: %v, reached the tier in run 1: %v",
									label, i, tables[i] != nil, reached[i])
							}
						}
						if kept == 0 {
							t.Fatalf("%s run 2: no viz keeps a table", label)
						}
					case 3:
						for i, v := range vizs {
							if tables[i] != nil && &v.keptRangeAngles()[0] != &tables[i][0] {
								t.Fatalf("%s run 3: viz %d replaced its kept table", label, i)
							}
						}
					}
				}
			}
		}
	}

	// A pinned LOCATION query groups its charts with a skip mask, so its
	// tiling tier never applies and nothing is kept.
	pinned := regexlang.MustParse("[x.s=0, x.e=4, p=up] ; [x.s=4, x.e=11, p=down]")
	for _, indexed := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Parallelism = 1
		want := referenceRun(t, series, pinned, opts)
		opts.Pruning = true
		p, err := Compile(pinned, opts)
		if err != nil {
			t.Fatal(err)
		}
		vizs := p.GroupSeries(series)
		var ix *VizIndex
		if indexed {
			ix = BuildVizIndex(vizs, 1)
		}
		for run := 1; run <= 3; run++ {
			res := keptRun(t, []*Plan{p}, vizs, ix, nil)
			requireSameResults(t, fmt.Sprintf("pinned indexed=%v run %d", indexed, run), want, res[0])
		}
		for i, v := range vizs {
			if v.Skipped == nil || v.tileRuns.Load() != 0 || v.keptRangeAngles() != nil {
				t.Fatalf("pinned indexed=%v: viz %d has skip mask %v, %d tier runs, kept table %v",
					indexed, i, v.Skipped != nil, v.tileRuns.Load(), v.keptRangeAngles() != nil)
			}
		}
	}
}

// TestKeptRangeAnglesConcurrent runs the four-query batch from 8
// goroutines at once over shared vizs, three runs each through the flat
// scan and the index alternately, so runs race to publish tables while
// others read them: every result must be referenceRun's, and every kept
// table fillRangeAngles' output. Under -race it checks the publication.
func TestKeptRangeAnglesConcurrent(t *testing.T) {
	series := keptStocks(t)
	queries := keptAnglesQueries(t)["batch"]
	ref := DefaultOptions()
	ref.Parallelism = 1
	want := make([][]Result, len(queries))
	for q, query := range queries {
		want[q] = referenceRun(t, series, query, ref)
	}
	opts := DefaultOptions()
	opts.Parallelism = 2
	opts.Pruning = true
	plans := make([]*Plan, len(queries))
	for q, query := range queries {
		p, err := Compile(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		plans[q] = p
	}
	mp, err := NewMultiPlan(plans)
	if err != nil {
		t.Fatal(err)
	}
	vizs := plans[0].GroupSeries(series)
	ix := BuildVizIndex(vizs, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for run := 0; run < 3; run++ {
				var res [][]Result
				var err error
				if (g+run)%2 == 0 {
					res, err = scan(context.Background(), mp.plans, len(vizs), func(i int) *Viz { return vizs[i] })
				} else {
					res, err = traverse(context.Background(), mp.plans, ix, nil)
				}
				if err != nil {
					errs <- err
					return
				}
				for q := range queries {
					if len(res[q]) != len(want[q]) {
						errs <- fmt.Errorf("goroutine %d run %d query %d: %d results, want %d", g, run, q, len(res[q]), len(want[q]))
						return
					}
					for i := range want[q] {
						w, r := want[q][i], res[q][i]
						if w.Z != r.Z || math.Float64bits(w.Score) != math.Float64bits(r.Score) {
							errs <- fmt.Errorf("goroutine %d run %d query %d result %d: %s at %v, want %s at %v",
								g, run, q, i, r.Z, r.Score, w.Z, w.Score)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if requireKeptTables(t, "concurrent", vizs) == 0 {
		t.Fatal("no viz keeps a table after 24 runs")
	}
}
