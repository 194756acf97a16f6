package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	ce := compileChain(v, norm.Alternatives[0], o)
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
			exact, _ := evalViz(ec, v, norm, o, treeRun)
			ec.resetBoundCaches(o.chainMeta)
			ub := soundUpperBound(ec, v, norm, o)
			if ub < exact-1e-9 {
				t.Fatalf("%q trial %d: sound bound %.12f below exact score %.12f", query, i, ub, exact)
			}
		}
	}
}

// tilingQueries are bare queries covering every construct the tiling bound
// serves: up, down, flat, θ, *, OR over chains, optionals, n − 1 < k.
var tilingQueries = []string{
	"u ; d",
	"d ; u ; d ; u",
	"f ; u ; d",
	"theta=30 ; d",
	"u ; * ; d",
	"(u ; d) | (d ; u)",
	"u? ; d ; u?",
	"u ; d ; u ; d ; u ; d",
}

// tilingCharts are the charts of length n the tiling-bound tests bound: a
// noisy walk, a clean peak, a constant, and a walk over repeated x, whose
// equal-x ranges have degenerate fits.
func tilingCharts(rng *rand.Rand, n int) []*Viz {
	peak := make([]float64, n)
	for i := range peak {
		peak[i] = float64(min(i, n-1-i)) + rng.Float64()*0.1
	}
	dup := randomWalk(rng, n)
	for i := range dup.X {
		dup.X[i] = float64(i / 2)
	}
	var out []*Viz
	for _, s := range []dataset.Series{randomWalk(rng, n), mkSeries("p", peak...), mkSeries("c", make([]float64, n)...), dup} {
		if v := group(s, groupConfig{zNormalize: true}); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// scoreStep runs the pipeline's per-candidate step for plan p on v with the
// query's floor at floor, and returns v's slot.
func scoreStep(p *Plan, v *Viz, floor float64) slot {
	r := newBatchRun([]*Plan{p}, 1)
	defer r.release()
	r.heaps[0].floorBits.Store(math.Float64bits(floor))
	s := make([]slot, 1)
	r.bound(r.ecs[0], v, 0, s)
	r.score(r.ecs[0], v, 0, s)
	return s[0]
}

// TestTilingBoundDominatesExact: the second bound tier must dominate the
// exact SegmentTree score with no margin beyond boundEps, across chart
// lengths up to past the cap (n − 1 < k included), degenerate fits,
// constant charts, width floors, strides and every bare construct. Its
// range angles must be fitMemo.fit's bit for bit, and the tier must decline
// — leaving the cheap bound to stand — above the cap, under a skip mask and
// for a non-bare unit.
func TestTilingBoundDominatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ec := newEvalCtx()
	var vizs []*Viz
	var fm fitMemo
	for n := 2; n <= tilingMaxPoints+2; n++ {
		for _, v := range tilingCharts(rng, n) {
			vizs = append(vizs, v)
			ec.fillRangeAngles(v)
			fm.reset()
			for j, at := 1, 0; j < n; j++ {
				for i := 0; i < j; i++ {
					_, want, _ := fm.fit(v, i, j)
					if got := ec.tileAngle[at]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d range [%d, %d]: table angle %v, fitMemo.fit %v", n, i, j, got, want)
					}
					at++
				}
			}
		}
	}
	for _, frac := range []float64{1e-9, 0.05, 0.3} {
		for stride := 1; stride <= 3; stride++ {
			opts := seqOpts()
			opts.MinSegmentFrac, opts.Stride = frac, stride
			for _, query := range tilingQueries {
				p, err := Compile(regexlang.MustParse(query), opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vizs {
					exact, _ := evalViz(ec, v, p.norm, p.opts, treeRun)
					// Past the cap the tier declines, but the bound is
					// still sound there.
					if tilingApplies(v, p.opts) != (v.N() <= tilingMaxPoints) {
						t.Fatalf("%q n=%d: tier applies = %v", query, v.N(), !(v.N() <= tilingMaxPoints))
					}
					ec.fillRangeAngles(v)
					tb := tilingUpperBound(ec, v, p.norm, p.opts)
					if tb < exact-boundEps || tb < -1 {
						t.Fatalf("%q frac=%v stride=%d n=%d: tiling bound %.17g, exact score %.17g",
							query, frac, stride, v.N(), tb, exact)
					}
				}
			}
		}
	}

	// Declines: each case has a chart whose tiling bound, were it computed,
	// would prune it; the per-candidate step must score it anyway.
	pruned := seqOpts()
	pruned.Pruning = true
	bare, err := Compile(regexlang.MustParse("u ; d ; u ; d"), pruned)
	if err != nil {
		t.Fatal(err)
	}
	nonBare, err := Compile(regexlang.MustParse("u ; (d | f) ; u ; d"), pruned)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *Plan
		mk   func() *Viz
	}{
		{"above cap", bare, func() *Viz {
			return group(randomWalk(rng, tilingMaxPoints+1), groupConfig{zNormalize: true})
		}},
		{"skip mask", bare, func() *Viz {
			return group(randomWalk(rng, 16), groupConfig{zNormalize: true, keepRanges: [][2]float64{{-1, 100}}})
		}},
		{"non-bare unit", nonBare, func() *Viz { return group(randomWalk(rng, 16), groupConfig{zNormalize: true}) }},
	}
	for _, c := range cases {
		var v *Viz
		var cheap float64
		for tries := 0; ; tries++ {
			if tries == 100 {
				t.Fatalf("%s: no chart with a tiling bound below its cheap bound", c.name)
			}
			v = c.mk()
			ec.resetBoundCaches(c.p.opts.chainMeta)
			cheap = soundUpperBound(ec, v, c.p.norm, c.p.opts)
			ec.fillRangeAngles(v)
			if tilingUpperBound(ec, v, bare.norm, bare.opts) < cheap-0.05 {
				break
			}
		}
		if tilingApplies(v, c.p.opts) {
			t.Fatalf("%s: tier applies", c.name)
		}
		if s := scoreStep(c.p, v, cheap); !s.ok {
			t.Fatalf("%s: candidate pruned at a floor equal to its cheap bound", c.name)
		}
	}
	// And the applying case: the same step prunes and records the tiling
	// bound as the slot's bound.
	for tries := 0; ; tries++ {
		if tries == 100 {
			t.Fatal("no chart with a tiling bound below its cheap bound")
		}
		v := group(randomWalk(rng, 16), groupConfig{zNormalize: true})
		ec.resetBoundCaches(bare.opts.chainMeta)
		cheap := soundUpperBound(ec, v, bare.norm, bare.opts)
		ec.fillRangeAngles(v)
		tb := tilingUpperBound(ec, v, bare.norm, bare.opts)
		if tb >= cheap-0.05 {
			continue
		}
		if s := scoreStep(bare, v, cheap); s.ok || !s.pruned || s.ub != tb {
			t.Fatalf("slot %+v, want pruned with the tiling bound %v", s, tb)
		}
		break
	}
}

// keptQueries are FuzzTilingBound's queries: tilingQueries, then chains
// the tiling tier declines but whose exact path still reads range angles,
// all with every signature occurring once (the score memo off).
var keptQueries = append(slices.Clip(tilingQueries), "d ; u", "[p=up, m=>>] ; d", "u ; (d | f)")

// FuzzTilingBound decodes a chart of 2 to keptAnglesMaxPoints points (x
// steps of 0, 1 or 2, so repeated x; y bytes 125, 126 and 127 stand for
// NaN, −Inf and +Inf), a query from keptQueries and a width floor. Bit 0
// of the flags byte skips z-normalization, so non-finite values reach the
// range sums. For a bare query the tiling bound must dominate the naive
// (chainMeta == nil) exact score with no margin beyond boundEps and never
// fall below −1, and the tier must apply exactly up to tilingMaxPoints.
// The chart then runs three times through the per-candidate step under a
// floor every bound clears, as three pruned runs would, so the tier (where
// it applies) and the exact evaluation both run: the first run counts the
// chart, the second makes it keep its range-angle table and the third
// reads it. After every run the slot's score and ranges must equal the
// naive evaluation's bit for bit; from the second, the kept table must be
// fillRangeAngles' output bit for bit, and the tiling bound over it the
// scratch fill's; the third must not replace it.
func FuzzTilingBound(f *testing.F) {
	f.Add([]byte{0, 13, 0, 1, 10, 1, 20, 1, 5, 1, 30, 1, 0, 1, 12})
	f.Add([]byte{7, 0, 0, 0, 1, 1, 2, 0, 3, 1, 4, 1, 3, 0, 2, 1, 1})
	f.Add([]byte{3, 100, 1, 1, 10, 1, 127, 1, 20, 1, 125, 1, 5, 2, 126, 1, 8})
	f.Add([]byte{5, 255, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	// 32-point charts, past the tier's cap: a zigzag under u ; d, and a
	// walk with a NaN and repeated x under a modified pattern, unnormalized.
	zigzag, walk := []byte{0, 13, 0}, []byte{9, 20, 1}
	for i := 0; i < keptAnglesMaxPoints; i++ {
		zigzag = append(zigzag, 1, byte(i%8*10))
		y := byte(i * 7 % 50)
		if i == 20 {
			y = 125
		}
		walk = append(walk, byte(i%3), y)
	}
	f.Add(zigzag)
	f.Add(walk)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		query := keptQueries[int(data[0])%len(keptQueries)]
		opts := seqOpts()
		opts.Pruning = true
		if data[1] > 0 {
			opts.MinSegmentFrac = float64(data[1]) / 512
		} else {
			opts.MinSegmentFrac = 1e-9
		}
		points := data[3:]
		n := min(len(points)/2, keptAnglesMaxPoints)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if i > 0 {
				xs[i] = xs[i-1] + float64(points[2*i]%3)
			}
			switch y := int8(points[2*i+1]); y {
			case 125:
				ys[i] = math.NaN()
			case 126:
				ys[i] = math.Inf(-1)
			case 127:
				ys[i] = math.Inf(1)
			default:
				ys[i] = float64(y)
			}
		}
		v := group(dataset.Series{Z: "f", X: xs, Y: ys}, groupConfig{zNormalize: data[2]&1 == 0})
		p, err := Compile(regexlang.MustParse(query), opts)
		if err != nil {
			t.Fatal(err)
		}
		np := naivePlan(p)
		want, wantRanges := evalViz(newEvalCtx(), v, np.norm, np.opts, np.solver)
		bare := p.opts.chainMeta.bare
		if tilingApplies(v, p.opts) != (bare && n <= tilingMaxPoints) || !anglesApply(v, p.opts) {
			t.Fatalf("%q n=%d: tier applies = %v, exact path reads angles = %v",
				query, n, tilingApplies(v, p.opts), anglesApply(v, p.opts))
		}
		ec := newEvalCtx()
		var tb float64
		if bare {
			// Past the cap the tier declines, but the bound is still sound.
			ec.fillRangeAngles(v)
			if tb = tilingUpperBound(ec, v, p.norm, p.opts); tb < want-boundEps || tb < -1 {
				t.Fatalf("%q frac=%v x=%v y=%v: tiling bound %.17g, exact score %.17g",
					query, opts.MinSegmentFrac, xs, ys, tb, want)
			}
		}
		var kept []float64
		for run := 1; run <= 3; run++ {
			s := scoreStep(p, v, -2)
			if !s.ok || math.Float64bits(s.score) != math.Float64bits(want) || !slices.Equal(s.ranges, wantRanges) {
				t.Fatalf("%q x=%v y=%v run %d: slot %+v, naive evaluation %.17g %v", query, xs, ys, run, s, want, wantRanges)
			}
			table := v.keptRangeAngles()
			switch {
			case (table != nil) != (run >= 2):
				t.Fatalf("%q x=%v y=%v run %d: keeps a table: %v", query, xs, ys, run, table != nil)
			case run == 2:
				kept = table
				ec.fillRangeAngles(v)
				for r := range ec.tileAngle {
					if math.Float64bits(kept[r]) != math.Float64bits(ec.tileAngle[r]) {
						t.Fatalf("%q x=%v y=%v range %d: kept angle %v, fillRangeAngles %v", query, xs, ys, r, kept[r], ec.tileAngle[r])
					}
				}
				if bare {
					ec.loadRangeAngles(v)
					if keptTB := tilingUpperBound(ec, v, p.norm, p.opts); math.Float64bits(keptTB) != math.Float64bits(tb) {
						t.Fatalf("%q x=%v y=%v: tiling bound %.17g over the kept table, %.17g over a fill", query, xs, ys, keptTB, tb)
					}
				}
			case run == 3 && &table[0] != &kept[0]:
				t.Fatalf("%q x=%v y=%v: run 3 replaced the kept table", query, xs, ys)
			}
		}
	})
}

// randomWalk is a random-walk series of n points.
func randomWalk(rng *rand.Rand, n int) dataset.Series {
	ys := make([]float64, n)
	for i := 1; i < n; i++ {
		ys[i] = ys[i-1] + rng.NormFloat64()
	}
	return mkSeries("w", ys...)
}

// BenchmarkTilingBound sets tilingMaxPoints: per chart length and chain, it
// times the tiling bound (range-angle table plus DP) against the exact
// evaluation the bound may save, over random walks on one worker. The cap
// is the longest chart where "bound" costs at most about half of "exact".
func BenchmarkTilingBound(b *testing.B) {
	for _, n := range []int{8, 12, 16, 20, 24, 28, 32, 40, 48, 64} {
		for _, query := range []string{"u ; d", "u ; d ; u ; d", "u ; d ; u ; d ; u ; d"} {
			p, err := Compile(regexlang.MustParse(query), seqOpts())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			vizs := make([]*Viz, 64)
			for i := range vizs {
				vizs[i] = group(randomWalk(rng, n), groupConfig{zNormalize: true})
			}
			ec := newEvalCtx()
			b.Run(fmt.Sprintf("n=%d/k=%d/bound", n, p.norm.MaxUnits()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v := vizs[i%len(vizs)]
					ec.fillRangeAngles(v)
					tilingUpperBound(ec, v, p.norm, p.opts)
				}
			})
			b.Run(fmt.Sprintf("n=%d/k=%d/exact", n, p.norm.MaxUnits()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					evalViz(ec, vizs[i%len(vizs)], p.norm, p.opts, treeRun)
				}
			})
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
	ce := compileChain(v, norm.Alternatives[0], o)
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
	a, err := searchSeries(series, q, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := searchSeries(series, q, pruned)
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
