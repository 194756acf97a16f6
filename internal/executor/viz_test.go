package executor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
)

func TestGroupSkipRanges(t *testing.T) {
	s := mkSeries("a", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	v := group(s, groupConfig{zNormalize: true, keepRanges: [][2]float64{{3, 6}}})
	if v.Skipped == nil {
		t.Fatal("expected skip mask")
	}
	for i, skipped := range v.Skipped {
		x := s.X[i]
		want := x < 3 || x > 6
		if skipped != want {
			t.Fatalf("point %d (x=%v) skipped=%v, want %v", i, x, skipped, want)
		}
	}
	// A fit over skipped points must be rejected by the evaluator.
	q := regexlang.MustParse("[p=up]")
	norm, _ := shape.Normalize(q)
	o := seqOpts().normalized()
	ce, err := compileChain(v, norm.Alternatives[0], o)
	if err != nil {
		t.Fatal(err)
	}
	if sc := ce.unitScore(0, 0, 9); sc != -1 {
		t.Fatalf("fit over skipped points = %v, want -1", sc)
	}
	if sc := ce.unitScore(0, 3, 6); sc <= 0 {
		t.Fatalf("fit inside kept range = %v, want positive", sc)
	}
}

// TestGroupNormalizedSlopeInvariance: after normalization, the fitted slope
// over the full chart is invariant to affine transforms of y and to the
// absolute x scale — the property that makes θ=45° mean the same thing on
// every chart.
func TestGroupNormalizedSlopeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(50)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(i) + r.NormFloat64()
		}
		base := mkSeries("a", ys...)
		scaled := dataset.Series{Z: "b", X: make([]float64, n), Y: make([]float64, n)}
		a := 0.5 + r.Float64()*20
		bOff := r.NormFloat64() * 100
		for i := range ys {
			scaled.X[i] = base.X[i]*37 + 5 // different x units
			scaled.Y[i] = a*ys[i] + bOff   // affine y
		}
		v1 := group(base, groupConfig{zNormalize: true})
		v2 := group(scaled, groupConfig{zNormalize: true})
		s1, ok1 := v1.rangeSlope(0, n-1)
		s2, ok2 := v2.rangeSlope(0, n-1)
		if !ok1 || !ok2 {
			return false
		}
		return math.Abs(s1-s2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitBoundsComposition(t *testing.T) {
	sLo, sHi := -1.0, 2.0
	up := shape.PatternSeg(shape.PatUp)
	down := shape.PatternSeg(shape.PatDown)
	lo, hi := unitBounds(up, sLo, sHi, false)
	if lo >= hi {
		t.Fatalf("up bounds [%v, %v]", lo, hi)
	}
	// AND bounds: min composition.
	alo, ahi := unitBounds(shape.And(up, down), sLo, sHi, false)
	ulo, uhi := unitBounds(up, sLo, sHi, false)
	dlo, dhi := unitBounds(down, sLo, sHi, false)
	if ahi != math.Min(uhi, dhi) || alo != math.Min(ulo, dlo) {
		t.Fatalf("AND bounds [%v, %v]", alo, ahi)
	}
	// OR bounds: max composition.
	olo, ohi := unitBounds(shape.Or(up, down), sLo, sHi, false)
	if ohi != math.Max(uhi, dhi) || olo != math.Max(ulo, dlo) {
		t.Fatalf("OR bounds [%v, %v]", olo, ohi)
	}
	// NOT flips and negates.
	nlo, nhi := unitBounds(shape.Not(up), sLo, sHi, false)
	if nlo != -uhi || nhi != -ulo {
		t.Fatalf("NOT bounds [%v, %v]", nlo, nhi)
	}
	// When evaluation-failure paths exist (skip masks, degenerate fits),
	// the lower bound collapses to −1 so NOT stays sound.
	flo, fhi := unitBounds(up, sLo, sHi, true)
	if flo != -1 || fhi != uhi {
		t.Fatalf("mayFail bounds [%v, %v]", flo, fhi)
	}
	// Quantifiers and sketches are conservatively unbounded.
	quant := shape.Seg(shape.Segment{Pat: shape.Pattern{Kind: shape.PatUp},
		Mod: shape.Modifier{Kind: shape.ModQuantifier, Min: 2, HasMin: true}})
	qlo, qhi := unitBounds(quant, sLo, sHi, false)
	if qlo != -1 || qhi != 1 {
		t.Fatalf("quantifier bounds [%v, %v]", qlo, qhi)
	}
}

// TestSoundBoundDominatesExact: the pruning upper bound must dominate the
// solver's exact score outright — no safety margin, no tolerated violation
// rate (only float-noise epsilon). This is the property that makes pruning
// lossless; the old mid-tree-level bound failed it on two thirds of real
// candidates and hid behind pruneSafetyMargin = 0.05.
func TestSoundBoundDominatesExact(t *testing.T) {
	queries := []string{
		"u ; d",
		"u ; d ; u ; d",
		"f ; u ; d",
		"u ; (d | f)",
		"u ; [p=down, x.s=20, x.e=40] ; u",
		"[p=up, m=>>] ; d",
	}
	rng := rand.New(rand.NewSource(17))
	ec := newEvalCtx()
	o := seqOpts().normalized()
	for _, query := range queries {
		q := regexlang.MustParse(query)
		norm, err := shape.Normalize(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			var v *Viz
			if i%3 == 0 {
				// Clean ramps: the regime where the bound is tight.
				up := 16 + rng.Intn(32)
				v = group(ramp("r", 0,
					[2]float64{float64(up), 1 + rng.Float64()},
					[2]float64{float64(63 - up), -1 - rng.Float64()}), groupConfig{zNormalize: true})
			} else {
				v = group(randomSeries(rng, 64), groupConfig{zNormalize: true})
			}
			exact, _, err := evalViz(ec, v, norm, o, treeRun)
			if err != nil {
				t.Fatal(err)
			}
			ec.resetBoundCaches(o.chainMeta)
			ub := soundUpperBound(ec, v, norm, o)
			if ub < exact-1e-9 {
				t.Fatalf("%q trial %d: sound bound %.12f below exact score %.12f", query, i, ub, exact)
			}
		}
	}
}

func TestRenderReference(t *testing.T) {
	q := regexlang.MustParse("u ; d")
	norm, _ := shape.Normalize(q)
	ref := renderReference(norm.Alternatives[0], 40)
	if len(ref) != 40 {
		t.Fatalf("len = %d", len(ref))
	}
	maxAt := 0
	for i, y := range ref {
		if y > ref[maxAt] {
			maxAt = i
		}
	}
	if maxAt < 15 || maxAt > 25 {
		t.Fatalf("peak at %d, want ~20", maxAt)
	}
	if out := renderReference(norm.Alternatives[0], 1); len(out) != 1 {
		t.Fatal("degenerate length")
	}
}

func TestNominalAngle(t *testing.T) {
	if a := nominalAngle(shape.PatternSeg(shape.PatUp)); a != 50 {
		t.Fatalf("up angle = %v", a)
	}
	if a := nominalAngle(shape.Not(shape.PatternSeg(shape.PatUp))); a != -50 {
		t.Fatalf("not-up angle = %v", a)
	}
	if a := nominalAngle(shape.SlopeSeg(33)); a != 33 {
		t.Fatalf("slope angle = %v", a)
	}
	if a := nominalAngle(shape.Or(shape.PatternSeg(shape.PatDown), shape.PatternSeg(shape.PatUp))); a != -50 {
		t.Fatalf("or angle = %v (first branch)", a)
	}
}

func TestMinSpanRelaxes(t *testing.T) {
	s := mkSeries("a", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	v := group(s, groupConfig{zNormalize: true})
	o := seqOpts().normalized()
	o.MinSegmentFrac = 0.5 // absurd floor: 5-6 points per unit
	q := regexlang.MustParse("u ; d ; u ; d")
	norm, _ := shape.Normalize(q)
	ce, err := compileChain(v, norm.Alternatives[0], o)
	if err != nil {
		t.Fatal(err)
	}
	// Four units over 11 gaps cannot all span 5: the floor must relax so a
	// segmentation still exists.
	if got := minSpan(ce, 4, 0, 11); got > 2 {
		t.Fatalf("minSpan = %d, want relaxed <= 2", got)
	}
	res := solveChain(ce, dpRun)
	if res.score == -1 {
		t.Fatal("relaxed floor should keep the query feasible")
	}
}

func TestFilterSeriesWithData(t *testing.T) {
	near := mkSeries("near", 1, 2, 3)
	far := mkSeries("far", 1, 2, 3)
	for i := range far.X {
		far.X[i] += 100
	}
	out := filterSeriesWithData([]dataset.Series{near, far}, [][2]float64{{0, 5}})
	if len(out) != 1 || out[0].Z != "near" {
		t.Fatalf("out = %+v", out)
	}
	// Two windows: must have data in both.
	out = filterSeriesWithData([]dataset.Series{near, far}, [][2]float64{{0, 5}, {100, 105}})
	if len(out) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestSearchPrunedMatchesPlainOnSearch(t *testing.T) {
	series := peakValleySeries()
	q := regexlang.MustParse("u ; d")
	plain := seqOpts()
	plain.Algorithm = AlgSegmentTree
	pruned := plain
	pruned.Pruning = true
	a, err := SearchSeries(series, q, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchSeries(series, q, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("pruned returned %d results, plain %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Z != b[i].Z || a[i].Score != b[i].Score {
			t.Fatalf("rank %d: pruned %s %.12f != plain %s %.12f", i, b[i].Z, b[i].Score, a[i].Z, a[i].Score)
		}
	}
}
