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
// benchmark's mix), a four-query batch, and u ; d and d ; u alone, whose
// signatures all occur once, so they run with the score memo off. Every
// query is bare, so the tiling tier applies on 12-point charts.
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
		"peak":   {regexlang.MustParse("u ; d")},
		"valley": {regexlang.MustParse("d ; u")},
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

// keptCorpus is one corpus of the kept-table tests.
type keptCorpus struct {
	name   string
	series []dataset.Series
}

// keptAnglesCorpora are the kept-table tests' corpora: 12-point stock
// charts, where the tiling tier applies, and 32-point DriftPeaks charts,
// past the tier's cap and at keptAnglesMaxPoints, where only the exact path
// reads the angles.
func keptAnglesCorpora(t *testing.T) []keptCorpus {
	t.Helper()
	return []keptCorpus{
		{"stocks", keptStocks(t)},
		{"drift", gen.DriftPeaksSeries(300, keptAnglesMaxPoints, 6, 1)},
	}
}

// keptRun runs the batch of plans once over vizs, through the flat scan
// or, when ix is non-nil, the index traversal.
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
		table, runs := v.keptRangeAngles(), v.angleRuns.Load()
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

// keptModes are the ways the kept-table tests run a query set: pruned
// through the flat scan and a one-shard index at 1 and 4 workers, and
// unpruned through the flat scan at one worker.
var keptModes = []struct {
	pruned, indexed bool
	workers         int
}{{true, false, 1}, {true, false, 4}, {true, true, 1}, {true, true, 4}, {false, false, 1}}

// TestKeptRangeAngles: a viz keeps its range-angle table from the second
// run whose tiling tier or exact path needs it, and nothing a run returns
// changes. Over 12-point stock charts and 32-point DriftPeaks charts, each
// query set runs three times on fresh vizs in every keptModes mode: after
// run 1 no viz keeps a table; after runs 2 and 3 a viz keeps one exactly
// when two runs needed its angles, equal to fillRangeAngles bit for bit —
// where the run order is deterministic (one worker, or the one-shard
// index, which runs one) that is every viz run 1 counted, and unpruned
// that is every viz; every run's results are referenceRun's; and the index
// scores the same candidates exactly in every run. A table, once kept, is
// never replaced.
func TestKeptRangeAngles(t *testing.T) {
	for _, corpus := range keptAnglesCorpora(t) {
		for name, queries := range keptAnglesQueries(t) {
			ref := DefaultOptions()
			ref.Parallelism = 1
			want := make([][]Result, len(queries))
			for q, query := range queries {
				want[q] = referenceRun(t, corpus.series, query, ref)
			}
			for _, mode := range keptModes {
				label := fmt.Sprintf("%s %s pruned=%v indexed=%v workers=%d", corpus.name, name, mode.pruned, mode.indexed, mode.workers)
				opts := DefaultOptions()
				opts.Parallelism = mode.workers
				opts.Pruning = mode.pruned
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
				vizs := plans[0].GroupSeries(corpus.series)
				var ix *VizIndex
				if mode.indexed {
					ix = BuildVizIndex(vizs, 1)
				}
				deterministic := mode.indexed || mode.workers == 1
				var reached []bool // vizs run 1 counted
				var scored int
				var tables [][]float64
				for run := 1; run <= 3; run++ {
					var st IndexStats
					res := keptRun(t, mp.plans, vizs, ix, &st)
					for q := range queries {
						requireSameResults(t, fmt.Sprintf("%s run %d query %d", label, run, q), want[q], res[q])
					}
					if mode.indexed {
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
							reached[i] = v.angleRuns.Load() == 1
							if reached[i] {
								n++
							}
						}
						if kept != 0 || n == 0 || (!mode.pruned && n != len(vizs)) {
							t.Fatalf("%s run 1: %d vizs keep a table and %d of %d were counted", label, kept, n, len(vizs))
						}
					case 2:
						tables = make([][]float64, len(vizs))
						for i, v := range vizs {
							tables[i] = v.keptRangeAngles()
							if deterministic && (tables[i] != nil) != reached[i] {
								t.Fatalf("%s run 2: viz %d keeps a table: %v, counted in run 1: %v",
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

	// A pinned LOCATION query groups its charts with a skip mask, so
	// neither its tiling tier nor its exact path reads range angles and
	// nothing is kept.
	series := keptStocks(t)
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
			if v.Skipped == nil || v.angleRuns.Load() != 0 || v.keptRangeAngles() != nil {
				t.Fatalf("pinned indexed=%v: viz %d has skip mask %v, %d counted runs, kept table %v",
					indexed, i, v.Skipped != nil, v.angleRuns.Load(), v.keptRangeAngles() != nil)
			}
		}
	}
}

// TestKeptRangeAnglesAreRead: u ; d, whose signatures all occur once so
// the score memo is off, takes its exact scores from the range angles a
// chart keeps, and from the tiling tier's scratch fill for the chart that
// fill belongs to. On every chart of both corpora, after two unpruned runs
// kept a table, a copy of the table with every entry overwritten by NaN
// (a degenerate fit on every range), published in its place, must turn
// u ; d's exact score into −1, where the real table gives more; and on
// every stock chart that keeps none, the same overwrite of ec's scratch
// fill must do the same for that chart and for no other.
func TestKeptRangeAnglesAreRead(t *testing.T) {
	opts := DefaultOptions()
	opts.Parallelism = 1
	p, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.chainMeta.memoOn {
		t.Fatal("u ; d runs with the score memo on")
	}
	for _, corpus := range keptAnglesCorpora(t) {
		vizs := p.GroupSeries(corpus.series)
		for run := 0; run < 2; run++ {
			keptRun(t, []*Plan{p}, vizs, nil, nil)
		}
		for i, v := range vizs {
			real := v.angles.Load()
			if real == nil {
				t.Fatalf("%s viz %d keeps no table after two unpruned runs", corpus.name, i)
			}
			exact, _ := evalViz(newEvalCtx(), v, p.norm, p.opts, p.solver)
			overwritten := make([]float64, len(*real))
			for r := range overwritten {
				overwritten[r] = math.NaN()
			}
			v.angles.Store(&overwritten)
			got, _ := evalViz(newEvalCtx(), v, p.norm, p.opts, p.solver)
			v.angles.Store(real)
			if !(exact > -1) || got != -1 {
				t.Fatalf("%s viz %d: u ; d scores %v over its kept table and %v over an all-NaN copy, want above −1 and −1",
					corpus.name, i, exact, got)
			}
		}
	}

	vizs := p.GroupSeries(keptStocks(t))
	ec := newEvalCtx()
	for i, v := range vizs {
		other := vizs[(i+1)%len(vizs)]
		exact, _ := evalViz(newEvalCtx(), v, p.norm, p.opts, p.solver)
		otherExact, _ := evalViz(newEvalCtx(), other, p.norm, p.opts, p.solver)
		ec.fillRangeAngles(v)
		for r := range ec.tileAngle {
			ec.tileAngle[r] = math.NaN()
		}
		got, _ := evalViz(ec, v, p.norm, p.opts, p.solver)
		otherGot, _ := evalViz(ec, other, p.norm, p.opts, p.solver)
		if !(exact > -1) || got != -1 || math.Float64bits(otherGot) != math.Float64bits(otherExact) {
			t.Fatalf("viz %d: u ; d scores %v, and %v over an all-NaN scratch fill, want above −1 and −1; the next viz scores %v beside that fill, %v alone",
				i, exact, got, otherGot, otherExact)
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
