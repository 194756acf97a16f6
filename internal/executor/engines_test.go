package executor

import (
	"math"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
)

// randomSeries builds a noisy piecewise-linear series for property tests.
func randomSeries(rng *rand.Rand, n int) dataset.Series {
	ys := make([]float64, n)
	y := rng.NormFloat64() * 5
	slope := rng.NormFloat64()
	for i := range ys {
		if rng.Intn(7) == 0 {
			slope = rng.NormFloat64() * 2
		}
		y += slope + rng.NormFloat64()*0.3
		ys[i] = y
	}
	return mkSeries("r", ys...)
}

func fuzzyQueries() []shape.Query {
	qs := []string{
		"u ; d",
		"u ; d ; u",
		"d ; f ; u",
		"(u | d) ; f",
		"u ; (f | d)",
		"[p=45] ; d",
		"u ; d ; u ; d",
	}
	out := make([]shape.Query, len(qs))
	for i, s := range qs {
		out[i] = regexlang.MustParse(s)
	}
	return out
}

// solveBest runs one solver over every alternative of a query and returns
// the best final score.
func solveBest(t *testing.T, v *Viz, q shape.Query, solver runSolver, opts *Options) float64 {
	t.Helper()
	norm, err := shape.Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(-1)
	for _, alt := range norm.Alternatives {
		ce := compileChain(v, alt, opts)
		if r := solveChain(ce, solver); r.score > best {
			best = r.score
		}
	}
	return best
}

// TestDPMatchesExhaustive: the DP must be exactly optimal (Theorem 6.1/6.2)
// — it must reproduce the brute-force best score on every input without
// POSITION references.
func TestDPMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	opts := seqOpts()
	o := opts.normalized()
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(14)
		v := group(randomSeries(rng, n), groupConfig{zNormalize: true})
		for _, q := range fuzzyQueries() {
			dp := solveBest(t, v, q, dpRun, o)
			ex := solveBest(t, v, q, exhaustiveRun, o)
			if math.Abs(dp-ex) > 1e-9 {
				t.Fatalf("trial %d, query %s: DP %v != exhaustive %v", trial, q, dp, ex)
			}
		}
	}
}

// TestSolversNeverBeatDP: DP is optimal, so SegmentTree and Greedy scores
// can never exceed it (within float tolerance).
func TestSolversNeverBeatDP(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	o := seqOpts().normalized()
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		v := group(randomSeries(rng, n), groupConfig{zNormalize: true})
		for _, q := range fuzzyQueries() {
			dp := solveBest(t, v, q, dpRun, o)
			tree := solveBest(t, v, q, treeRun, o)
			greedy := solveBest(t, v, q, greedyRun, o)
			if tree > dp+1e-9 {
				t.Fatalf("SegmentTree %v beats DP %v on %s", tree, dp, q)
			}
			if greedy > dp+1e-9 {
				t.Fatalf("Greedy %v beats DP %v on %s", greedy, dp, q)
			}
		}
	}
}

// TestSegmentTreeNearOptimal: on realistic piecewise-linear data the
// SegmentTree score should track DP closely (the paper reports >85%
// ranking accuracy and small score deviations).
func TestSegmentTreeNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	o := seqOpts().normalized()
	var totalDP, totalTree float64
	trials := 0
	for trial := 0; trial < 25; trial++ {
		n := 40 + rng.Intn(80)
		v := group(randomSeries(rng, n), groupConfig{zNormalize: true})
		for _, q := range fuzzyQueries() {
			dp := solveBest(t, v, q, dpRun, o)
			tree := solveBest(t, v, q, treeRun, o)
			if dp < 0.1 {
				continue // deviation ratios are meaningless near zero
			}
			totalDP += dp
			totalTree += tree
			trials++
		}
	}
	if trials == 0 {
		t.Skip("no positive-score trials")
	}
	ratio := totalTree / totalDP
	if ratio < 0.85 {
		t.Fatalf("SegmentTree captures only %.1f%% of DP score mass", ratio*100)
	}
}

// TestSegmentTreeExactOnCleanData: with noise-free piecewise-linear data
// whose break sits on a power-of-two boundary, SegmentTree finds the exact
// optimum.
func TestSegmentTreeExactOnCleanData(t *testing.T) {
	o := seqOpts().normalized()
	s := ramp("clean", 0, [2]float64{16, 1}, [2]float64{16, -1})
	v := group(s, groupConfig{zNormalize: true})
	q := regexlang.MustParse("u ; d")
	dp := solveBest(t, v, q, dpRun, o)
	tree := solveBest(t, v, q, treeRun, o)
	if math.Abs(dp-tree) > 1e-9 {
		t.Fatalf("tree %v != dp %v on clean data", tree, dp)
	}
}

// TestSegmentTreeSharedUnitMerge: the break point need not fall on a dyadic
// boundary — the shared-unit merge must recover off-center breaks.
func TestSegmentTreeSharedUnitMerge(t *testing.T) {
	o := seqOpts().normalized()
	// Peak at index 5 of 32 points: far from any dyadic midpoint.
	s := ramp("off", 0, [2]float64{5, 2}, [2]float64{27, -1})
	v := group(s, groupConfig{zNormalize: true})
	q := regexlang.MustParse("u ; d")
	norm, _ := shape.Normalize(q)
	ce := compileChain(v, norm.Alternatives[0], o)
	res := solveChain(ce, treeRun)
	if res.score < 0.5 {
		t.Fatalf("score = %v", res.score)
	}
	br := res.ranges[0][1]
	if br < 4 || br > 7 {
		t.Fatalf("break at %d, want ~5", br)
	}
}

// TestGreedyWorseOnHardData: construct data with a local optimum trap and
// confirm greedy underperforms DP — the behaviour Figure 12 documents.
func TestGreedyFindsLocalOptimum(t *testing.T) {
	o := seqOpts().normalized()
	rng := rand.New(rand.NewSource(31))
	worse := 0
	total := 0
	for trial := 0; trial < 40; trial++ {
		v := group(randomSeries(rng, 60), groupConfig{zNormalize: true})
		q := regexlang.MustParse("u ; d ; u ; d")
		dp := solveBest(t, v, q, dpRun, o)
		gr := solveBest(t, v, q, greedyRun, o)
		total++
		if gr < dp-1e-6 {
			worse++
		}
	}
	if worse == 0 {
		t.Fatal("greedy should hit local optima on some random inputs")
	}
	_ = total
}

// TestPruningPreservesTopK: lossless pruning must return exactly the same
// top-k — identity, order and scores — as the unpruned SegmentTree scan.
func TestPruningPreservesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var series []dataset.Series
	// 40 noise series and 5 strong peaks.
	for i := 0; i < 40; i++ {
		s := randomSeries(rng, 64)
		s.Z = s.Z + string(rune('a'+i%26)) + string(rune('0'+i/26))
		series = append(series, s)
	}
	for i := 0; i < 5; i++ {
		s := ramp("peak"+string(rune('0'+i)), 0, [2]float64{32, 1}, [2]float64{31, -1})
		series = append(series, s)
	}
	base := seqOpts()
	base.Algorithm = AlgSegmentTree
	base.K = 5
	pruned := base
	pruned.Pruning = true

	q := regexlang.MustParse("u ; d")
	want, err := searchSeries(series, q, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := searchSeries(series, q, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
			t.Fatalf("rank %d: pruned %s %.12f != unpruned %s %.12f",
				i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
		}
	}
}

// TestExhaustiveHandlesPositionRefsJointly: for POSITION queries the
// exhaustive engine optimizes jointly and must never score below the
// two-pass engines' final (re-scored) result.
func TestExhaustivePositionRefs(t *testing.T) {
	o := seqOpts().normalized()
	s := ramp("s", 0, [2]float64{8, 2}, [2]float64{8, 0.4})
	v := group(s, groupConfig{zNormalize: true})
	q := regexlang.MustParse("[p=up][p=$0, m=<]")
	ex := solveBest(t, v, q, exhaustiveRun, o)
	dp := solveBest(t, v, q, dpRun, o)
	if ex < dp-1e-9 {
		t.Fatalf("exhaustive %v below DP two-pass %v", ex, dp)
	}
	if ex < 0.3 {
		t.Fatalf("slowing rise should match, got %v", ex)
	}
}

// TestDPStrideCoarsening: a coarser candidate grid can only lower the DP
// score (it searches a subset of segmentations).
func TestDPStrideCoarsening(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		v := group(randomSeries(rng, 80), groupConfig{zNormalize: true})
		q := regexlang.MustParse("u ; d ; u")
		norm, _ := shape.Normalize(q)
		o := seqOpts().normalized()
		ce := compileChain(v, norm.Alternatives[0], o)
		fine := dpRunStride(ce, 0, len(ce.units)-1, 0, v.N()-1, 1)
		coarse := dpRunStride(ce, 0, len(ce.units)-1, 0, v.N()-1, 8)
		if coarse.score > fine.score+1e-9 {
			t.Fatalf("coarse %v beats fine %v", coarse.score, fine.score)
		}
	}
}

// TestChainScoreConsistency: every solver's reported score must equal the
// re-scored value of the ranges it returns (no internal bookkeeping drift).
func TestChainScoreConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	o := seqOpts().normalized()
	for trial := 0; trial < 15; trial++ {
		v := group(randomSeries(rng, 48), groupConfig{zNormalize: true})
		q := regexlang.MustParse("u ; d ; f")
		norm, _ := shape.Normalize(q)
		for _, solver := range []runSolver{dpRun, treeRun, greedyRun} {
			ce := compileChain(v, norm.Alternatives[0], o)
			res := solveChain(ce, solver)
			re := ce.scoreRanges(res.ranges)
			if math.Abs(res.score-re) > 1e-9 {
				t.Fatalf("solver score %v != rescored %v", res.score, re)
			}
		}
	}
}
