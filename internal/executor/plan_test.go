package executor

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
)

func planSeries() []dataset.Series {
	rng := rand.New(rand.NewSource(7))
	var series []dataset.Series
	for i := 0; i < 30; i++ {
		s := randomSeries(rng, 48)
		s.Z = s.Z + string(rune('a'+i%26)) + string(rune('0'+i/26))
		series = append(series, s)
	}
	series = append(series,
		ramp("peak", 0, [2]float64{24, 1}, [2]float64{23, -1}),
		ramp("valley", 1, [2]float64{24, -1}, [2]float64{23, 1}),
	)
	return series
}

func TestCompileRejectsInvalidQueries(t *testing.T) {
	if _, err := Compile(regexlang.MustParse("[p=foo_pattern]"), DefaultOptions()); err == nil {
		t.Fatal("unknown UDP must fail at Compile")
	}
	bad := DefaultOptions()
	bad.Algorithm = Algorithm(99)
	if _, err := Compile(regexlang.MustParse("u ; d"), bad); err == nil {
		t.Fatal("unknown algorithm must fail at Compile")
	}
}

// TestPlanMatchesSearchSeries: a plan compiled once must rank identically,
// run after run, to a fresh Compile + RunContext per call, across
// algorithms, pruning and parallelism.
func TestPlanMatchesSearchSeries(t *testing.T) {
	series := planSeries()
	q := regexlang.MustParse("u ; d")
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"sequential", func(o *Options) { o.Parallelism = 1 }},
		{"parallel", func(o *Options) { o.Parallelism = 4 }},
		{"pruned-sequential", func(o *Options) { o.Parallelism = 1; o.Pruning = true }},
		{"pruned-parallel", func(o *Options) { o.Parallelism = 4; o.Pruning = true }},
		{"dp", func(o *Options) { o.Algorithm = AlgDP }},
		{"greedy", func(o *Options) { o.Algorithm = AlgGreedy }},
		{"euclidean", func(o *Options) { o.Algorithm = AlgEuclidean }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.K = 5
			tc.mod(&opts)
			want, err := searchSeries(series, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				got, err := plan.RunContext(context.Background(), series)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("run %d: len %d != %d", run, len(got), len(want))
				}
				for i := range want {
					if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
						t.Fatalf("run %d: %d: %s %v != %s %v", run, i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
					}
				}
			}
		})
	}
}

// TestRunGroupedMatchesRun: scoring pre-grouped candidates must equal the
// ungrouped path — the contract the server's candidate cache relies on.
func TestRunGroupedMatchesRun(t *testing.T) {
	series := planSeries()
	for _, query := range []string{"u ; d", "[p{up},x.s=10,x.e=30]"} {
		q := regexlang.MustParse(query)
		plan, err := Compile(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.RunContext(context.Background(), series)
		if err != nil {
			t.Fatal(err)
		}
		vizs := plan.GroupSeries(series)
		got, err := plan.RunGrouped(vizs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", query, len(got), len(want))
		}
		for i := range want {
			if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
				t.Fatalf("%s: %d: %+v != %+v", query, i, got[i].Z, want[i].Z)
			}
		}
	}
}

// TestPlanConcurrentReuse: one compiled plan must serve concurrent Run and
// RunGrouped calls (the serving pattern) race-free with stable results.
func TestPlanConcurrentReuse(t *testing.T) {
	series := planSeries()
	opts := DefaultOptions()
	opts.Pruning = true
	plan, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.RunContext(context.Background(), series)
	if err != nil {
		t.Fatal(err)
	}
	vizs := plan.GroupSeries(series)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				var got []Result
				var err error
				if g%2 == 0 {
					got, err = plan.RunContext(context.Background(), series)
				} else {
					got, err = plan.RunGrouped(vizs)
				}
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
						errs <- errMismatch
						return
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
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent plan runs disagree" }

func TestCandidateKey(t *testing.T) {
	spec := dataset.ExtractSpec{Z: "z", X: "x", Y: "y", Agg: dataset.AggAvg}
	fuzzy, err := Compile(regexlang.MustParse("u ; d"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fuzzy2, err := Compile(regexlang.MustParse("d ; u ; d"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Different queries, same visual parameters: keys collide on purpose —
	// that is what lets the cache serve all of them from one candidate set.
	if fuzzy.CandidateKey(spec) != fuzzy2.CandidateKey(spec) {
		t.Fatal("fuzzy queries over the same spec must share a candidate key")
	}
	other := spec
	other.Y = "y2"
	if fuzzy.CandidateKey(spec) == fuzzy.CandidateKey(other) {
		t.Fatal("different specs must not share a candidate key")
	}
	filtered := spec
	filtered.Filters = []dataset.Filter{{Col: "y", Op: dataset.Lt, Num: 3}}
	if fuzzy.CandidateKey(spec) == fuzzy.CandidateKey(filtered) {
		t.Fatal("filters must be part of the candidate key")
	}
	// A y-constrained query disables z-normalization, changing the grouped
	// candidates; its key must differ.
	ycons, err := Compile(regexlang.MustParse("[p{up},y.s=1,y.e=5]"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ycons.CandidateKey(spec) == fuzzy.CandidateKey(spec) {
		t.Fatal("y-constrained queries must not share candidates with z-normalized ones")
	}
	// A fully pinned query pushes windows into EXTRACT and skip-masks GROUP.
	pinned, err := Compile(regexlang.MustParse("[p{up},x.s=10,x.e=30]"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pinned.CandidateKey(spec) == fuzzy.CandidateKey(spec) {
		t.Fatal("pinned queries must not share candidates with unpinned ones")
	}
}

// TestSharedThresholdPruningParallel: the parallel pruned pipeline must
// return the exact top-k of the unpruned search — identity, order and
// scores — under any worker count (the Section 6.3 guarantee, now lossless
// under a shared live threshold plus deferred verification).
func TestSharedThresholdPruningParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var series []dataset.Series
	for i := 0; i < 60; i++ {
		s := randomSeries(rng, 64)
		s.Z = s.Z + string(rune('a'+i%26)) + string(rune('0'+i/26))
		series = append(series, s)
	}
	for i := 0; i < 5; i++ {
		series = append(series, ramp("peak"+string(rune('0'+i)), 0, [2]float64{32, 1}, [2]float64{31, -1}))
	}
	q := regexlang.MustParse("u ; d")
	base := DefaultOptions()
	base.Algorithm = AlgSegmentTree
	base.K = 5
	base.Parallelism = 1
	want, err := searchSeries(series, q, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		pruned := base
		pruned.Pruning = true
		pruned.Parallelism = workers
		got, err := searchSeries(series, q, pruned)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
				t.Fatalf("workers=%d: rank %d: pruned %s %.12f != unpruned %s %.12f",
					workers, i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
			}
		}
	}
}
