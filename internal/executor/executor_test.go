package executor

import (
	"context"
	"math"
	"strings"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/score"
	"shapesearch/internal/shape"
)

// mkSeries builds a series with x = 0..len-1.
func mkSeries(z string, ys ...float64) dataset.Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return dataset.Series{Z: z, X: xs, Y: ys}
}

// ramp produces a piecewise linear series from leg deltas: each leg is
// (pointCount, perPointDelta).
func ramp(z string, start float64, legs ...[2]float64) dataset.Series {
	ys := []float64{start}
	y := start
	for _, leg := range legs {
		for i := 0; i < int(leg[0]); i++ {
			y += leg[1]
			ys = append(ys, y)
		}
	}
	return mkSeries(z, ys...)
}

func seqOpts() Options {
	o := DefaultOptions()
	o.Parallelism = 1
	return o
}

// searchSeries compiles q and ranks series with it: the one-shot Compile +
// RunContext the tests run queries through.
func searchSeries(series []dataset.Series, q shape.Query, opts Options) ([]Result, error) {
	p, err := Compile(q, opts)
	if err != nil {
		return nil, err
	}
	return p.RunContext(context.Background(), series)
}

func search(t *testing.T, series []dataset.Series, q string, opts Options) []Result {
	t.Helper()
	res, err := searchSeries(series, regexlang.MustParse(q), opts)
	if err != nil {
		t.Fatalf("searchSeries(%q): %v", q, err)
	}
	return res
}

func TestGroupNormalization(t *testing.T) {
	s := mkSeries("a", 10, 20, 30, 40, 50)
	v := group(s, groupConfig{zNormalize: true})
	if v == nil {
		t.Fatal("nil viz")
	}
	if v.nx[0] != 0 || math.Abs(v.nx[4]-normXSpan) > 1e-12 {
		t.Fatalf("nx = %v", v.nx)
	}
	var mean float64
	for i := range v.N() {
		mean += v.normY(i)
	}
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("z-normalized mean = %v", mean)
	}
	// Slope over the full range should be positive and ~40-50 degrees in
	// normalized chart space.
	slope, ok := v.rangeSlope(0, 4)
	if !ok || slope <= 0 {
		t.Fatalf("slope = %v, %v", slope, ok)
	}
	deg := math.Atan(slope) * 180 / math.Pi
	if deg < 20 || deg > 60 {
		t.Fatalf("full-chart steady rise fits %v degrees; expected chart-like 20-60", deg)
	}
}

func TestGroupDegenerate(t *testing.T) {
	if v := group(mkSeries("a", 5), groupConfig{}); v != nil {
		t.Fatal("single-point series should yield nil viz")
	}
	if v := group(dataset.Series{}, groupConfig{}); v != nil {
		t.Fatal("empty series should yield nil viz")
	}
}

func TestIndexOfX(t *testing.T) {
	v := group(mkSeries("a", 1, 2, 3, 4, 5, 6), groupConfig{})
	if i := v.indexOfX(2.0); i != 2 {
		t.Fatalf("indexOfX(2) = %d", i)
	}
	if i := v.indexOfX(2.5); i != 3 {
		t.Fatalf("indexOfX(2.5) = %d", i)
	}
	if i := v.indexAtOrBefore(2.5); i != 2 {
		t.Fatalf("indexAtOrBefore(2.5) = %d", i)
	}
	if i := v.indexOfX(99); i != 5 {
		t.Fatalf("indexOfX(99) = %d", i)
	}
}

func peakValleySeries() []dataset.Series {
	return []dataset.Series{
		ramp("peak", 0, [2]float64{10, 1}, [2]float64{10, -1}),
		ramp("valley", 10, [2]float64{10, -1}, [2]float64{10, 1}),
		ramp("rise", 0, [2]float64{20, 1}),
		ramp("fall", 20, [2]float64{20, -1}),
		ramp("flat", 5, [2]float64{20, 0.001}),
	}
}

func TestSearchUpDown(t *testing.T) {
	for _, alg := range []Algorithm{AlgDP, AlgSegmentTree, AlgGreedy} {
		opts := seqOpts()
		opts.Algorithm = alg
		res := search(t, peakValleySeries(), "u ; d", opts)
		if len(res) != 5 {
			t.Fatalf("%v: %d results", alg, len(res))
		}
		if res[0].Z != "peak" {
			t.Fatalf("%v: top = %s (score %v), want peak", alg, res[0].Z, res[0].Score)
		}
		if res[0].Score < 0.5 {
			t.Fatalf("%v: peak score = %v, want strong", alg, res[0].Score)
		}
		// The worst match for up-down should be the valley.
		if res[len(res)-1].Z != "valley" {
			t.Fatalf("%v: bottom = %s, want valley", alg, res[len(res)-1].Z)
		}
	}
}

func TestSearchDownUp(t *testing.T) {
	res := search(t, peakValleySeries(), "d ; u", seqOpts())
	if res[0].Z != "valley" {
		t.Fatalf("top = %s, want valley", res[0].Z)
	}
}

func TestSearchBreaksAtTurn(t *testing.T) {
	series := []dataset.Series{ramp("peak", 0, [2]float64{12, 1}, [2]float64{8, -1})}
	opts := seqOpts()
	opts.Algorithm = AlgDP
	res := search(t, series, "u ; d", opts)
	if len(res[0].Ranges) != 2 {
		t.Fatalf("ranges = %v", res[0].Ranges)
	}
	// The break should land at the turning point (index 12).
	br := res[0].Ranges[0][1]
	if br < 11 || br > 13 {
		t.Fatalf("break at %d, want ~12", br)
	}
	if len(res[0].BreakXs) != 3 {
		t.Fatalf("BreakXs = %v", res[0].BreakXs)
	}
}

func TestTopKLimit(t *testing.T) {
	opts := seqOpts()
	opts.K = 2
	res := search(t, peakValleySeries(), "u ; d", opts)
	if len(res) != 2 {
		t.Fatalf("K=2 gave %d results", len(res))
	}
	if res[0].Score < res[1].Score {
		t.Fatal("results must be sorted descending")
	}
}

func TestNonFuzzyPinned(t *testing.T) {
	// down on [0..10], up on [10..20]: matches "down 0-10".
	series := []dataset.Series{
		ramp("match", 10, [2]float64{10, -1}, [2]float64{10, 1}),
		ramp("anti", 0, [2]float64{10, 1}, [2]float64{10, -1}),
	}
	res := search(t, series, "[p=down, x.s=0, x.e=10]", seqOpts())
	if res[0].Z != "match" || res[0].Score < 0.4 {
		t.Fatalf("top = %+v", res[0])
	}
	if res[1].Score > 0 {
		t.Fatalf("anti should score negative, got %v", res[1].Score)
	}
}

func TestNonFuzzyGapPins(t *testing.T) {
	// Pinned segments with a gap between them (like the 50Words Table 11
	// query): down on [0..10], anything, up on [30..40].
	series := []dataset.Series{
		ramp("match", 20, [2]float64{10, -1}, [2]float64{20, 0}, [2]float64{10, 1}),
		ramp("wrong", 0, [2]float64{10, 1}, [2]float64{20, 0}, [2]float64{10, -1}),
	}
	q := "[p=down, x.s=0, x.e=10][p=up, x.s=30, x.e=40]"
	res := search(t, series, q, seqOpts())
	if res[0].Z != "match" || res[0].Score < 0.4 {
		t.Fatalf("top = %s score %v", res[0].Z, res[0].Score)
	}
	if res[1].Score > -0.4 {
		t.Fatalf("wrong should score badly, got %v", res[1].Score)
	}
}

func TestHybridQuery(t *testing.T) {
	// Pinned up at [0..10] followed by fuzzy down then up.
	series := []dataset.Series{
		ramp("good", 0, [2]float64{10, 1}, [2]float64{8, -1}, [2]float64{8, 1}),
		ramp("bad", 10, [2]float64{10, -1}, [2]float64{8, 1}, [2]float64{8, -1}),
	}
	q := "[p=up, x.s=0, x.e=10] ; d ; u"
	res := search(t, series, q, seqOpts())
	if res[0].Z != "good" || res[0].Score < 0.4 {
		t.Fatalf("top = %s score %v", res[0].Z, res[0].Score)
	}
}

func TestPushdownEquivalence(t *testing.T) {
	series := peakValleySeries()
	q := "[p=up, x.s=0, x.e=10]"
	on := seqOpts()
	off := seqOpts()
	off.Pushdown = false
	ron := search(t, series, q, on)
	roff := search(t, series, q, off)
	if len(ron) == 0 || len(roff) == 0 {
		t.Fatal("no results")
	}
	// Push-down must not change the top result or its score materially.
	if ron[0].Z != roff[0].Z || math.Abs(ron[0].Score-roff[0].Score) > 1e-9 {
		t.Fatalf("pushdown changed results: %+v vs %+v", ron[0], roff[0])
	}
}

func TestPushdownDropsNoDataSeries(t *testing.T) {
	far := mkSeries("far", 1, 2, 3)
	// Shift x far from the pinned window.
	for i := range far.X {
		far.X[i] += 1000
	}
	series := []dataset.Series{ramp("near", 0, [2]float64{20, 1}), far}
	res := search(t, series, "[p=up, x.s=0, x.e=10]", seqOpts())
	for _, r := range res {
		if r.Z == "far" {
			t.Fatal("series with no data in the pinned window should be pruned")
		}
	}
}

func TestOrAlternatives(t *testing.T) {
	series := []dataset.Series{
		ramp("peak", 0, [2]float64{10, 1}, [2]float64{10, -1}),
		ramp("downup", 10, [2]float64{10, -1}, [2]float64{10, 1}),
	}
	// (u⊗d) ⊕ (d⊗u): both should score highly via different alternatives.
	res := search(t, series, "(u ; d) | (d ; u)", seqOpts())
	if res[0].Score < 0.5 || res[1].Score < 0.5 {
		t.Fatalf("scores = %v, %v", res[0].Score, res[1].Score)
	}
}

func TestAndOpposite(t *testing.T) {
	series := []dataset.Series{
		ramp("rise", 0, [2]float64{20, 1}),
		ramp("flat", 5, [2]float64{20, 0}),
	}
	// up AND not flat.
	res := search(t, series, "[p=up] & ![p=flat]", seqOpts())
	if res[0].Z != "rise" {
		t.Fatalf("top = %s", res[0].Z)
	}
	if res[1].Score > 0 {
		t.Fatalf("flat series should fail 'up and not flat', got %v", res[1].Score)
	}
}

func TestQuantifierTwoPeaks(t *testing.T) {
	series := []dataset.Series{
		ramp("twopeaks", 0, [2]float64{5, 1}, [2]float64{5, -1}, [2]float64{5, 1}, [2]float64{5, -1}),
		ramp("onepeak", 0, [2]float64{10, 1}, [2]float64{10, -1}),
		ramp("fall", 20, [2]float64{20, -1}),
	}
	res := search(t, series, "[p=up, m={2,}]", seqOpts())
	if res[0].Z != "twopeaks" {
		t.Fatalf("top = %s", res[0].Z)
	}
	scores := map[string]float64{}
	for _, r := range res {
		scores[r.Z] = r.Score
	}
	if scores["onepeak"] != score.WorstScore {
		t.Fatalf("one rise under {2,} should be -1, got %v", scores["onepeak"])
	}
	// At most one rise: twopeaks must now fail.
	res = search(t, series, "[p=up, m={,1}]", seqOpts())
	scores = map[string]float64{}
	for _, r := range res {
		scores[r.Z] = r.Score
	}
	if scores["twopeaks"] != score.WorstScore {
		t.Fatalf("two rises under {,1} should be -1, got %v", scores["twopeaks"])
	}
	if scores["onepeak"] <= 0 {
		t.Fatalf("one rise under {,1} should be positive, got %v", scores["onepeak"])
	}
}

func TestIteratorWindow(t *testing.T) {
	// Sharpest 5-wide rise lives in "sharp", which rises 5 in 5 points;
	// "gentle" rises 5 over 20 points.
	series := []dataset.Series{
		ramp("sharp", 0, [2]float64{10, 0}, [2]float64{5, 1}, [2]float64{10, 0}),
		ramp("gentle", 0, [2]float64{25, 0.2}),
	}
	res := search(t, series, "[x.s=., x.e=.+5, p=up]", seqOpts())
	if res[0].Z != "sharp" {
		t.Fatalf("top = %s (scores %v, %v)", res[0].Z, res[0].Score, res[1].Score)
	}
}

func TestPositionReference(t *testing.T) {
	// Query: up, then up with smaller slope than segment 0.
	series := []dataset.Series{
		ramp("slowing", 0, [2]float64{10, 2}, [2]float64{10, 0.3}),
		ramp("speeding", 0, [2]float64{10, 0.3}, [2]float64{10, 2}),
	}
	res := search(t, series, "[p=up][p=$0, m=<]", seqOpts())
	if res[0].Z != "slowing" {
		t.Fatalf("top = %s (scores: %v vs %v)", res[0].Z, res[0].Score, res[1].Score)
	}
}

func TestNestedPattern(t *testing.T) {
	series := []dataset.Series{
		ramp("peak", 0, [2]float64{10, 1}, [2]float64{10, -1}),
		ramp("rise", 0, [2]float64{20, 1}),
	}
	res := search(t, series, "[p=[[p=up][p=down]]]", seqOpts())
	if res[0].Z != "peak" {
		t.Fatalf("top = %s", res[0].Z)
	}
}

func TestUDP(t *testing.T) {
	opts := seqOpts()
	opts.UDPs = score.NewRegistry()
	opts.UDPs.Register("endshigh", func(xs, ys []float64) float64 {
		if len(ys) == 0 {
			return -1
		}
		max := ys[0]
		for _, y := range ys {
			if y > max {
				max = y
			}
		}
		if ys[len(ys)-1] >= max-1e-9 {
			return 1
		}
		return -1
	})
	series := []dataset.Series{
		ramp("climber", 0, [2]float64{20, 1}),
		ramp("peak", 0, [2]float64{10, 1}, [2]float64{10, -1}),
	}
	res := search(t, series, "[p=endshigh]", opts)
	if res[0].Z != "climber" || res[0].Score != 1 {
		t.Fatalf("top = %+v", res[0])
	}
	// Unknown UDP is a compile error.
	if _, err := searchSeries(series, regexlang.MustParse("[p=ghost]"), seqOpts()); err == nil ||
		!strings.Contains(err.Error(), "user-defined pattern") {
		t.Fatalf("expected unknown-UDP error, got %v", err)
	}
}

func TestSketchSegment(t *testing.T) {
	series := []dataset.Series{
		ramp("vshape", 10, [2]float64{10, -1}, [2]float64{10, 1}),
		ramp("rise", 0, [2]float64{20, 1}),
	}
	// Sketch of a V shape.
	res := search(t, series, "[v=(0:10,5:5,10:0,15:5,20:10)]", seqOpts())
	if res[0].Z != "vshape" {
		t.Fatalf("top = %s", res[0].Z)
	}
	if res[0].Score < 0.5 {
		t.Fatalf("sketch match score = %v", res[0].Score)
	}
}

func TestYConstraints(t *testing.T) {
	series := []dataset.Series{
		ramp("anchored", 10, [2]float64{10, 9}),   // 10 → 100 over x 0..10
		ramp("offtarget", 50, [2]float64{10, 10}), // 50 → 150
	}
	q := "[x.s=0, x.e=10, y.s=10, y.e=100]"
	res := search(t, series, q, seqOpts())
	if res[0].Z != "anchored" || res[0].Score < 0.5 {
		t.Fatalf("top = %+v", res[0])
	}
	if res[1].Score != score.WorstScore {
		t.Fatalf("offtarget should fail location check, got %v", res[1].Score)
	}
}

func TestDTWAndEuclideanSearch(t *testing.T) {
	series := peakValleySeries()
	for _, alg := range []Algorithm{AlgDTW, AlgEuclidean} {
		opts := seqOpts()
		opts.Algorithm = alg
		res := search(t, series, "u ; d", opts)
		if len(res) != 5 {
			t.Fatalf("%v: %d results", alg, len(res))
		}
		if res[0].Z != "peak" {
			t.Fatalf("%v: top = %s", alg, res[0].Z)
		}
	}
}

// TestDTWZeroOptionsUnconstrained: a zero-value Options ranks by DTW
// exactly as DefaultOptions does, with unconstrained warping. On
// equal-length series a diagonal-only DTW is the Euclidean ranking, so the
// corpus is one where DTW and Euclidean rank differently.
func TestDTWZeroOptionsUnconstrained(t *testing.T) {
	series := allocSeries(60, 24)
	q := regexlang.MustParse("u ; d ; u")
	rank := func(opts Options) []Result {
		t.Helper()
		res, err := searchSeries(series, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b []Result) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Z != b[i].Z || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				return false
			}
		}
		return true
	}
	def := DefaultOptions()
	def.Algorithm = AlgDTW
	want := rank(def)
	def.Algorithm = AlgEuclidean
	if same(want, rank(def)) {
		t.Fatal("corpus does not separate DTW from Euclidean rankings")
	}
	if got := rank(Options{Algorithm: AlgDTW}); !same(got, want) {
		t.Fatalf("zero-value Options DTW ranks %s (%v) first, DefaultOptions %s (%v)",
			got[0].Z, got[0].Score, want[0].Z, want[0].Score)
	}
}

// TestParseAlgorithm: every algorithm round-trips through String and
// ParseAlgorithm, the names "" and "auto" parse to AlgAuto and "tree" to
// AlgSegmentTree, and an unknown name is an error.
func TestParseAlgorithm(t *testing.T) {
	for a := AlgAuto; a <= AlgEuclidean; a++ {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for name, want := range map[string]Algorithm{"": AlgAuto, "auto": AlgAuto, "tree": AlgSegmentTree} {
		if got, err := ParseAlgorithm(name); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm(bogus) should fail")
	}
}

func TestParallelismEquivalence(t *testing.T) {
	series := peakValleySeries()
	seq := seqOpts()
	par := seqOpts()
	par.Parallelism = 4
	a := search(t, series, "u ; d", seq)
	b := search(t, series, "u ; d", par)
	if len(a) != len(b) {
		t.Fatal("result count mismatch")
	}
	for i := range a {
		if a[i].Z != b[i].Z || a[i].Score != b[i].Score {
			t.Fatalf("parallel mismatch at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestExhaustiveGuard(t *testing.T) {
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i)
	}
	opts := seqOpts()
	opts.Algorithm = AlgExhaustive
	_, err := searchSeries([]dataset.Series{mkSeries("big", big...)}, regexlang.MustParse("u;d"), opts)
	if err == nil || !strings.Contains(err.Error(), "exhaustive") {
		t.Fatalf("expected exhaustive guard error, got %v", err)
	}
}

func TestSearchFromTable(t *testing.T) {
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: []string{"a", "a", "a", "b", "b", "b"}},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: []float64{0, 1, 2, 0, 1, 2}},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: []float64{0, 1, 2, 2, 1, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(regexlang.MustParse("u"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.SearchContext(context.Background(), tbl, dataset.ExtractSpec{Z: "z", X: "x", Y: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Z != "a" {
		t.Fatalf("top = %s", res[0].Z)
	}
}

func TestInvalidQuerySurfaces(t *testing.T) {
	q := shape.Query{Root: shape.Seg(shape.Segment{})}
	if _, err := searchSeries(peakValleySeries(), q, seqOpts()); err == nil {
		t.Fatal("invalid query should error")
	}
	andChain := shape.Query{Root: shape.And(
		shape.PatternSeg(shape.PatUp),
		shape.Concat(shape.PatternSeg(shape.PatUp), shape.PatternSeg(shape.PatDown)),
	)}
	if _, err := searchSeries(peakValleySeries(), andChain, seqOpts()); err == nil {
		t.Fatal("AND-over-chain should error")
	}
}
