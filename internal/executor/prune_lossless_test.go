package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
)

// assertSameResults fails unless both rankings are identical in length,
// order, identity and exact score — the lossless-pruning contract.
func assertSameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d: got %s %.12f, want %s %.12f",
				label, i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
		}
	}
}

// mixedCorpus builds a randomized corpus mixing the regimes pruning sees in
// the wild: noisy series (bounds stay above the floor, little pruning),
// monotone drifts (bounds fall below a separated floor, heavy pruning), and
// planted peaks that set the floor.
func mixedCorpus(rng *rand.Rand, n, points int) []dataset.Series {
	series := make([]dataset.Series, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			s := randomSeries(rng, points)
			s.Z = fmt.Sprintf("noise%03d", i)
			series = append(series, s)
		case 1, 2:
			dir := float64(1 - 2*(i%2))
			ys := make([]float64, points)
			y := 0.0
			for j := range ys {
				y += dir * (0.5 + rng.Float64())
				ys[j] = y + rng.NormFloat64()*0.05
			}
			series = append(series, mkSeries(fmt.Sprintf("drift%03d", i), ys...))
		default:
			up := points/2 + rng.Intn(points/4) - points/8
			series = append(series, ramp(fmt.Sprintf("peak%03d", i), 0,
				[2]float64{float64(up), 1 + rng.Float64()},
				[2]float64{float64(points - 1 - up), -1 - rng.Float64()}))
		}
	}
	return series
}

// TestPruningIsLossless is the negation of the old
// TestPruningLossinessRegression: with Pruning on, the top-k — scores and
// ranking — must be identical to the unpruned sequential scan. The pinned
// sub-test reproduces the exact case the old margin-based bound lost
// ("transit024" on the luminosity demo, query u;d;u, K=5: a true top-5
// member whose exact score beat the unpruned floor by ~0.058, more than the
// 0.05 margin, yet was pruned); the randomized sub-test sweeps corpora,
// k values, chain shapes and worker counts.
func TestPruningIsLossless(t *testing.T) {
	t.Run("luminosity-transit024", func(t *testing.T) {
		lum := gen.Luminosity(40, 300, 1)
		series, err := dataset.Extract(lum, dataset.ExtractSpec{Z: "star", X: "time", Y: "luminosity"})
		if err != nil {
			t.Fatal(err)
		}
		q := regexlang.MustParse("u;d;u")
		opts := DefaultOptions()
		opts.Algorithm = AlgSegmentTree
		opts.Parallelism = 1
		opts.K = 5

		opts.Pruning = false
		exact, err := searchSeries(series, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "reference", referenceRun(t, series, q, opts), exact)
		const victim = "transit024"
		found := false
		for _, r := range exact {
			if r.Z == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q not in the exact top-%d; the planted dataset or scoring changed — re-derive the pinned candidate", victim, opts.K)
		}

		for _, workers := range []int{1, 4} {
			pruned := opts
			pruned.Pruning = true
			pruned.Parallelism = workers
			got, err := searchSeries(series, q, pruned)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("workers=%d", workers), exact, got)
		}
	})

	t.Run("randomized", func(t *testing.T) {
		queries := []string{"u ; d", "u ; d ; u", "u ; d ; u ; d", "f ; u ; d", "(u ; d) | (d ; u)", "u ; (d | f)"}
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			series := mixedCorpus(rng, 80, 96+rng.Intn(64))
			query := queries[int(seed)%len(queries)]
			q := regexlang.MustParse(query)
			for _, k := range []int{1, 3, 10} {
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
					pruned := base
					pruned.Pruning = true
					pruned.Parallelism = workers
					got, err := searchSeries(series, q, pruned)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResults(t, fmt.Sprintf("seed=%d q=%q k=%d workers=%d", seed, query, k, workers), want, got)
				}
			}
			// Remaining queries on the same corpus, default k.
			for qi, query := range queries {
				if qi == int(seed)%len(queries) {
					continue
				}
				q := regexlang.MustParse(query)
				base := DefaultOptions()
				base.Algorithm = AlgSegmentTree
				base.Parallelism = 1
				base.K = 5
				base.Pruning = false
				want, err := searchSeries(series, q, base)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("seed=%d q=%q reference", seed, query), referenceRun(t, series, q, base), want)
				pruned := base
				pruned.Pruning = true
				got, err := searchSeries(series, q, pruned)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("seed=%d q=%q", seed, query), want, got)
			}
		}
	})
}

// TestDeferredVerificationRescues forces gross over-pruning through the
// test-only threshold bias: stage 2 then prunes candidates whose sound
// bound exceeds the true floor, and only the deferred exact-verification
// stage can restore the top-k. If a bound or threshold regression ever
// reintroduces over-pruning, this is the stage that turns it into wasted
// work instead of a wrong answer — exactly what this test simulates.
func TestDeferredVerificationRescues(t *testing.T) {
	tbl := gen.DriftPeaks(200, 128, 3)
	series, err := dataset.Extract(tbl, dataset.ExtractSpec{Z: "series", X: "t", Y: "v"})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"u ; d", "u ; d ; u ; d"} {
		q := regexlang.MustParse(query)
		base := DefaultOptions()
		base.Algorithm = AlgSegmentTree
		base.Parallelism = 1
		base.K = 10
		base.Pruning = false
		want, err := searchSeries(series, q, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, bias := range []float64{0.25, 2.5} {
			for _, workers := range []int{1, 4} {
				pruned := base
				pruned.Pruning = true
				pruned.Parallelism = workers
				pruned.pruneThresholdBias = bias
				got, err := searchSeries(series, q, pruned)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("q=%q bias=%v workers=%d", query, bias, workers), want, got)
			}
		}
	}
}

// TestTilingTierIsLive pins the tiling bound into the per-candidate step
// both drivers share: on a short-chart stocks corpus a pruned
// "u ; d ; u ; d" over a one-shard index must score at most 60 of its 300
// candidates exactly (the cheap bound alone scores 168), with results
// equal to the reference run.
func TestTilingTierIsLive(t *testing.T) {
	series, err := dataset.Extract(gen.Stocks(300, 12, 1), dataset.ExtractSpec{Z: "symbol", X: "day", Y: "price"})
	if err != nil {
		t.Fatal(err)
	}
	q := regexlang.MustParse("u ; d ; u ; d")
	opts := DefaultOptions()
	opts.Parallelism = 1
	want := referenceRun(t, series, q, opts)
	opts.Pruning = true
	plan, err := Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var st IndexStats
	got, err := plan.RunIndexedStatsContext(context.Background(), BuildVizIndex(plan.GroupSeries(series), 1), &st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "pruned", want, got)
	t.Logf("scored %d of %d", st.Scored, st.Candidates)
	if st.Candidates != 300 || st.Scored > 60 {
		t.Fatalf("scored %d of %d candidates exactly, want at most 60 of 300", st.Scored, st.Candidates)
	}
}
