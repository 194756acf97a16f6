package executor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
)

// naivePlan returns a copy of the plan with the shared-segmentation
// metadata stripped: evalViz and soundUpperBound both fall back
// to the naive per-alternative loop — the reference behavior the shared
// path must reproduce byte-identically.
func naivePlan(p *Plan) *Plan {
	o := *p.opts
	o.chainMeta = nil
	np := *p
	np.opts = &o
	return &np
}

// sharedEvalQueries cover the alternative-multiplying constructs: optional
// units, OR over chains, repeated patterns within one chain, pinned hybrid
// chains, quantifiers and nested sub-queries.
var sharedEvalQueries = []string{
	"u ; d ; u ; d",
	"u? ; d ; u?",
	"u?;d;u?;d;u?",
	"(u;d)|(d;u)|(u;f;d)",
	"u? ; [p=down, x.s=20, x.e=60] ; u",
	"[p=up, m={2,}] ; d?",
	"[p=[[p=up][p=down]]] ; u?",
}

// TestSharedEvalMatchesNaive: shared-skeleton + memoized evaluation must be
// byte-identical — score bits, ranges, break points, ranking — to the naive
// per-alternative loop, across corpora × chain shapes × worker counts,
// pruned runs included (the style of TestPooledKernelMatchesFreshContexts,
// lifted to the full pipeline).
func TestSharedEvalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	corpora := [][]dataset.Series{
		allocSeries(12, 90),
		allocSeries(24, 150),
	}
	// A third corpus with irregular lengths.
	var mixed []dataset.Series
	for i := 0; i < 16; i++ {
		s := randomSeries(rng, 70+rng.Intn(90))
		s.Z = fmt.Sprintf("m%03d", i)
		mixed = append(mixed, s)
	}
	corpora = append(corpora, mixed)

	for _, q := range sharedEvalQueries {
		for _, workers := range []int{1, 2, 4} {
			for _, pruning := range []bool{false, true} {
				opts := seqOpts()
				opts.Algorithm = AlgSegmentTree
				opts.Parallelism = workers
				opts.Pruning = pruning
				plan, err := Compile(regexlang.MustParse(q), opts)
				if err != nil {
					t.Fatal(err)
				}
				if plan.opts.chainMeta == nil {
					t.Fatalf("%s: compiled plan has no chain metadata", q)
				}
				for ci, series := range corpora {
					vizs := plan.GroupSeries(series)
					got, err := plan.RunGrouped(vizs)
					if err != nil {
						t.Fatal(err)
					}
					want, err := naivePlan(plan).RunGrouped(vizs)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s workers=%d pruning=%v corpus=%d", q, workers, pruning, ci)
					if len(got) != len(want) {
						t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Z != w.Z {
							t.Fatalf("%s: rank %d is %q, want %q", label, i, g.Z, w.Z)
						}
						if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
							t.Fatalf("%s: %q score %v != naive %v", label, g.Z, g.Score, w.Score)
						}
						if len(g.Ranges) != len(w.Ranges) {
							t.Fatalf("%s: %q range count %d != %d", label, g.Z, len(g.Ranges), len(w.Ranges))
						}
						for r := range g.Ranges {
							if g.Ranges[r] != w.Ranges[r] {
								t.Fatalf("%s: %q range %d %v != %v", label, g.Z, r, g.Ranges[r], w.Ranges[r])
							}
						}
						for b := range g.BreakXs {
							if math.Float64bits(g.BreakXs[b]) != math.Float64bits(w.BreakXs[b]) {
								t.Fatalf("%s: %q break %d %v != %v", label, g.Z, b, g.BreakXs[b], w.BreakXs[b])
							}
						}
					}
				}
			}
		}
	}
}

// TestSharedEvalMatchesNaiveDP covers the DP and greedy solvers over the
// same shared memo (the SegmentTree is exercised above).
func TestSharedEvalMatchesNaiveDP(t *testing.T) {
	series := allocSeries(10, 80)
	for _, alg := range []Algorithm{AlgDP, AlgGreedy} {
		for _, q := range []string{"u?;d;u?", "(u;d)|(d;u)", "u ; d ; u"} {
			opts := seqOpts()
			opts.Algorithm = alg
			plan, err := Compile(regexlang.MustParse(q), opts)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plan.GroupSeries(series)
			got, err := plan.RunGrouped(vizs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naivePlan(plan).RunGrouped(vizs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Z != want[i].Z || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%v/%s: rank %d got %q %v, want %q %v",
						alg, q, i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
				}
			}
		}
	}
}

// TestSharedFloorLockFree hammers sharedTopK from concurrent adders and
// lock-free floor readers (run with -race): the published floor must always
// be a value the heap actually held, monotone non-decreasing, and equal to
// the exact heap floor once the writers stop.
func TestSharedFloorLockFree(t *testing.T) {
	s := newSharedTopK(8)
	const (
		writers = 4
		readers = 2
		perW    = 2000
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			last := math.Inf(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := s.fastFloor()
				if f < last {
					t.Errorf("floor went backwards: %v after %v", f, last)
					return
				}
				last = f
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				s.add(rng.Float64())
			}
		}(int64(w))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if f, ok := s.floor(); !ok || math.Float64bits(f) != math.Float64bits(s.fastFloor()) {
		t.Fatalf("published floor %v != heap floor %v (ok=%v)", s.fastFloor(), f, ok)
	}
}

// TestFilterSeriesWithDataBinarySearch pins the binary-searched push-down
// filter against the linear-scan definition, sorted and unsorted inputs
// included.
func TestFilterSeriesWithDataBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	linear := func(series []dataset.Series, ranges [][2]float64) []dataset.Series {
		out := series[:0:0]
		for _, s := range series {
			keep := true
			for _, r := range ranges {
				found := false
				for _, x := range s.X {
					if x >= r[0] && x <= r[1] {
						found = true
						break
					}
				}
				if !found {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, s)
			}
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		var series []dataset.Series
		for i := 0; i < 8; i++ {
			n := 5 + rng.Intn(40)
			xs := make([]float64, n)
			ys := make([]float64, n)
			x := rng.Float64() * 50
			for j := range xs {
				x += rng.Float64() * 3
				xs[j] = x
				ys[j] = rng.NormFloat64()
			}
			if i%3 == 2 { // unsorted: exercise the fallback
				xs[0], xs[n-1] = xs[n-1], xs[0]
			}
			series = append(series, dataset.Series{Z: fmt.Sprintf("s%d", i), X: xs, Y: ys})
		}
		var ranges [][2]float64
		for r := 0; r < 1+rng.Intn(3); r++ {
			lo := rng.Float64() * 120
			ranges = append(ranges, [2]float64{lo, lo + rng.Float64()*40})
		}
		got := filterSeriesWithData(series, ranges)
		want := linear(series, ranges)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d series, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Z != want[i].Z {
				t.Fatalf("trial %d: kept %q, want %q", trial, got[i].Z, want[i].Z)
			}
		}
	}
}

// fuzzyAltSeries is a Fig-13b-scale corpus (Weather substitute subsampled
// as in the root benchmarks) for the multi-alternative benchmarks.
func fuzzyAltSeries(b *testing.B) []dataset.Series {
	b.Helper()
	ds := gen.Weather()
	series, err := dataset.Extract(ds.Table, ds.Spec)
	if err != nil {
		b.Fatal(err)
	}
	sub := make([]dataset.Series, 0, len(series)/8+1)
	for i := 0; i < len(series); i += 8 {
		sub = append(sub, series[i])
	}
	return sub
}

// BenchmarkFuzzyAlternatives measures shared-segmentation evaluation on a
// query whose optional units expand into 8 alternative chains
// (u?;d;u?;d;u? — the SlopeSeeker-style many-near-identical-variants
// workload). Shared is the compiled-plan path (signature memo + shared
// grids + bound dedup); Naive re-solves every alternative independently,
// which is what every candidate paid before this optimization.
func BenchmarkFuzzyAlternatives(b *testing.B) {
	series := fuzzyAltSeries(b)
	for _, cfg := range []struct {
		name    string
		naive   bool
		pruning bool
	}{
		{"Shared", false, false},
		{"Naive", true, false},
		{"SharedPruned", false, true},
		{"NaivePruned", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Algorithm = AlgSegmentTree
			opts.Parallelism = 1
			opts.Pruning = cfg.pruning
			plan, err := Compile(regexlang.MustParse("u?;d;u?;d;u?"), opts)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.naive {
				plan = naivePlan(plan)
			}
			// Pre-grouped candidates: the serving hot path (the candidate
			// cache skips EXTRACT + GROUP), and the same constant in both
			// arms either way.
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
}

// BenchmarkPrunedFloorSeeding pins the cost of seeding the pruning floor on
// the separated workload. The paper's stage-1 coarse sampling was deleted
// after this ablation showed it losing on every workload once the
// bound-first scan existed (DriftPeaks: 10.5ms with vs 9.2ms without;
// RealEstate: 35.3 vs 34.3; 8-alternative fuzzy: 3.8 vs 2.5 — the
// measurement recorded in CHANGES.md); what remains is the floor seeded by
// the first exactly-scored, highest-bound candidates.
func BenchmarkPrunedFloorSeeding(b *testing.B) {
	tbl := gen.DriftPeaks(400, 256, 11)
	series, err := dataset.Extract(tbl, dataset.ExtractSpec{Z: "series", X: "t", Y: "v"})
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Algorithm = AlgSegmentTree
	opts.Parallelism = 1
	opts.Pruning = true
	plan, err := Compile(regexlang.MustParse("u ; d ; u ; d"), opts)
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
}
