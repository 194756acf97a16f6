package executor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/segstat"
	"shapesearch/internal/shapeindex"
	"shapesearch/internal/sketch"
)

// legacyViz is GROUP's output in the layout it had before GROUP split it
// into an x side and a y side: normalized x and y stored per chart, and one
// prefix array of whole Stats built from a per-point bins slice. legacyGroup
// builds it exactly as group did then; it is the oracle every x side and y
// side is checked against, bit for bit.
type legacyViz struct {
	nx, ny  []float64
	prefix  []segstat.Stats // prefix[k] summarizes normalized points [0, k)
	skipped []bool
}

func legacyGroup(s dataset.Series, cfg groupConfig) *legacyViz {
	n := s.Len()
	if n < 2 {
		return nil
	}
	l := &legacyViz{nx: make([]float64, n), ny: make([]float64, n)}
	xmin, xmax := s.X[0], s.X[n-1]
	span := xmax - xmin
	if span <= 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		l.nx[i] = (s.X[i] - xmin) / span * normXSpan
	}
	copy(l.ny, s.Y)
	if cfg.zNormalize {
		segstat.ZNormalize(l.ny)
	}
	if cfg.keepRanges != nil {
		l.skipped = make([]bool, n)
		for i := 0; i < n; i++ {
			l.skipped[i] = !dataset.InRanges(s.X[i], cfg.keepRanges)
		}
	}
	bins := make([]segstat.Stats, n)
	for i := 0; i < n; i++ {
		if l.skipped != nil && l.skipped[i] {
			continue
		}
		var b segstat.Stats
		b.Add(l.nx[i], l.ny[i])
		bins[i] = b
	}
	l.prefix = make([]segstat.Stats, 1, n+1)
	for _, b := range bins {
		l.prefix = append(l.prefix, segstat.Merge(l.prefix[len(l.prefix)-1], b))
	}
	return l
}

func (l *legacyViz) rangeStats(i, j int) segstat.Stats {
	return segstat.Sub(l.prefix[j+1], l.prefix[i])
}

// rangeAngles is writeRangeAngles over the whole-Stats prefix array.
func (l *legacyViz) rangeAngles() []float64 {
	n := len(l.nx)
	out := make([]float64, 0, n*(n-1)/2)
	for j := 1; j < n; j++ {
		e := &l.prefix[j+1]
		for i := 0; i < j; i++ {
			s := &l.prefix[i]
			cnt, sx := e.N-s.N, e.SumX-s.SumX
			a := math.NaN()
			if cnt >= 2 {
				den := cnt*(e.SumXX-s.SumXX) - sx*sx
				if den != 0 && !math.IsNaN(den) {
					sl := (cnt*(e.SumXY-s.SumXY) - sx*(e.SumY-s.SumY)) / den
					if !math.IsNaN(sl) && !math.IsInf(sl, 0) {
						a = math.Atan(sl)
					}
				}
			}
			out = append(out, a)
		}
	}
	return out
}

func (l *legacyViz) ampUnit() float64 {
	if amp := segstat.Std(l.ny); amp != 0 {
		return amp
	}
	return 1
}

func (l *legacyViz) skipPrefix() []int {
	if l.skipped == nil {
		return nil
	}
	pre := make([]int, len(l.skipped)+1)
	for i, s := range l.skipped {
		pre[i+1] = pre[i]
		if s {
			pre[i+1]++
		}
	}
	return pre
}

// pruneSlopeStats is Viz.pruneSlopeStats over the legacy layout.
func (l *legacyViz) pruneSlopeStats() pruneStats {
	n := len(l.nx)
	ext := segstat.NewExtremes((n-1)/30 + 2)
	dMin, dMax := math.Inf(1), math.Inf(-1)
	pairs := 0
	for i := 0; i+1 < n; i++ {
		if l.skipped != nil && (l.skipped[i] || l.skipped[i+1]) {
			continue
		}
		s, ok := l.rangeStats(i, i+1).Slope()
		if !ok {
			continue
		}
		pairs++
		ext.Observe(s)
		d := l.nx[i+1] - l.nx[i]
		if d < dMin {
			dMin = d
		}
		if d > dMax {
			dMax = d
		}
	}
	lowPrefix, highPrefix := ext.PrefixSums()
	ratio := math.Inf(1)
	if dMin > 0 {
		ratio = dMax / dMin
	}
	return pruneStats{nPairs: pairs, low: ext.Low(), lowPrefix: lowPrefix, high: ext.High(), highPrefix: highPrefix, ratio: ratio}
}

func (l *legacyViz) boundSummary() *shapeindex.Summary {
	ps := l.pruneSlopeStats()
	return &shapeindex.Summary{
		N: len(l.nx), NPairs: ps.nPairs, Low: ps.low, LowPrefix: ps.lowPrefix, High: ps.high, HighPrefix: ps.highPrefix,
		Ratio: ps.ratio, MayFail: l.skipped != nil || math.IsInf(ps.ratio, 1),
		UpDown: sketch.Directions(l.nx, func(i int) float64 { return l.ny[i] }, indexPAAWindows),
	}
}

// sameFloats reports whether two float slices hold the same bits, except
// that any NaN equals any NaN. Which operand's payload an addition of two
// NaNs keeps is up to the compiler, which may commute the operands: the
// legacy layout's own payloads changed under the fuzzer's instrumented
// build. No result reads a payload, since every fit and score treats a NaN
// as degenerate.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// sameStats reports whether two Stats are equal field by field, as
// sameFloats compares.
func sameStats(a, b segstat.Stats) bool {
	return sameFloats([]float64{a.SumX, a.SumY, a.SumXY, a.SumXX, a.N}, []float64{b.SumX, b.SumY, b.SumXY, b.SumXX, b.N})
}

// requireLegacyGroup checks a chart grouped from s against the legacy
// layout, bit for bit (NaN payloads aside, see sameFloats): its raw series,
// normalized x and y, skip mask, rangeStats over every range, range angles,
// ampUnit, slope statistics and bound summary.
func requireLegacyGroup(t *testing.T, label string, v *Viz, s dataset.Series, l *legacyViz) {
	t.Helper()
	if v.Series.Z != s.Z || !sameBits(v.Series.X, s.X) || !sameBits(v.Series.Y, s.Y) {
		t.Fatalf("%s: series differ", label)
	}
	if !sameFloats(v.nx, l.nx) {
		t.Fatalf("%s: normalized x %v, want %v", label, v.nx, l.nx)
	}
	n := v.N()
	for i := 0; i < n; i++ {
		if got := v.normY(i); !sameFloats([]float64{got}, l.ny[i:i+1]) {
			t.Fatalf("%s: normalized y[%d] = %v, want %v", label, i, got, l.ny[i])
		}
	}
	if !slices.Equal(v.Skipped, l.skipped) || (v.Skipped == nil) != (l.skipped == nil) || !slices.Equal(v.skipPre, l.skipPrefix()) {
		t.Fatalf("%s: skip mask %v %v, want %v %v", label, v.Skipped, v.skipPre, l.skipped, l.skipPrefix())
	}
	for i := 0; i <= n; i++ {
		for j := i - 1; j < n; j++ {
			if got, want := v.rangeStats(i, j), l.rangeStats(i, j); !sameStats(got, want) {
				t.Fatalf("%s: rangeStats(%d, %d) = %+v, want %+v", label, i, j, got, want)
			}
		}
	}
	angles := make([]float64, n*(n-1)/2)
	writeRangeAngles(v, angles)
	if want := l.rangeAngles(); !sameFloats(angles, want) {
		t.Fatalf("%s: range angles %v, want %v", label, angles, want)
	}
	v.memoize(newEvalCtx())
	if want := l.ampUnit(); !sameFloats([]float64{v.amp}, []float64{want}) {
		t.Fatalf("%s: ampUnit %v, want %v", label, v.amp, want)
	}
	ps, want := v.pruneSlopeStats(), l.pruneSlopeStats()
	if ps.nPairs != want.nPairs || !sameFloats(ps.low, want.low) || !sameFloats(ps.lowPrefix, want.lowPrefix) ||
		!sameFloats(ps.high, want.high) || !sameFloats(ps.highPrefix, want.highPrefix) || !sameFloats([]float64{ps.ratio}, []float64{want.ratio}) {
		t.Fatalf("%s: slope stats %+v, want %+v", label, *ps, want)
	}
	got, wantSum := v.boundSummary(), l.boundSummary()
	if got.N != wantSum.N || got.NPairs != wantSum.NPairs || got.MayFail != wantSum.MayFail ||
		!sameFloats([]float64{got.Ratio}, []float64{wantSum.Ratio}) || !slices.Equal(got.UpDown, wantSum.UpDown) {
		t.Fatalf("%s: bound summary %+v, want %+v", label, got, wantSum)
	}
}

// groupThreeWays groups s alone, after a chart with the same x bits and
// other y values, and after a chart whose x differs from s's in one bit of
// point flip. It checks that the x side is shared exactly in the second
// case, and returns the three charts.
func groupThreeWays(t *testing.T, s dataset.Series, cfg groupConfig, flip int) [3]*Viz {
	t.Helper()
	otherY := make([]float64, len(s.Y))
	for i, y := range s.Y {
		otherY[i] = -2*y + float64(i%3)
	}
	same := group(dataset.Series{Z: "same", X: slices.Clone(s.X), Y: otherY}, cfg)
	flipped := slices.Clone(s.X)
	flipped[flip] = math.Float64frombits(math.Float64bits(flipped[flip]) ^ 1)
	other := group(dataset.Series{Z: "other", X: flipped, Y: otherY}, cfg)
	out := [3]*Viz{group(s, cfg), groupAfter(s, cfg, same), groupAfter(s, cfg, other)}
	if out[1].xAxis != same.xAxis || &out[1].Series.X[0] != &same.Series.X[0] {
		t.Fatalf("x %v: a chart with equal x bits does not share the previous chart's x side", s.X)
	}
	if out[2].xAxis == other.xAxis || out[0].xAxis == out[1].xAxis {
		t.Fatalf("x %v: a chart shares an x side whose x bits differ", s.X)
	}
	return out
}

// FuzzGroup decodes a chart of 2 to 40 points and a GROUP configuration,
// groups it alone, after a chart with the same x bits and other y, and
// after a chart whose x differs in one bit, and demands each result equal
// the legacy layout bit for bit (requireLegacyGroup). The flags byte holds
// the z-normalization (bit 0 clear) and a keep window (bit 1, bounds in
// the next two bytes). Each point is two bytes. x is its byte mod 16 less
// 8, so x repeats and runs out of order, and byte 255 stands for −0. y is
// the signed byte, except codes 120–127: the previous y (constant runs),
// −0, 1e300, −1e300, 5e-324, NaN, −Inf and +Inf. Bits 2–7 of the flags
// byte pick the point whose x bit the third grouping flips.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 10, 1, 20, 2, 5, 3, 30, 4, 0})
	f.Add([]byte{1, 0, 0, 3, 120, 3, 120, 3, 120, 3, 120})
	f.Add([]byte{2, 2, 9, 0, 1, 1, 125, 2, 126, 3, 127, 4, 121, 5, 122, 6, 123, 7, 124})
	f.Add([]byte{3, 250, 4, 255, 5, 0, 7, 255, 124, 1, 121, 1, 9})
	f.Add([]byte{0, 0, 0, 9, 1, 4, 2, 9, 3, 2, 1, 15, 4, 12, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		cfg := groupConfig{zNormalize: data[0]&1 == 0}
		if data[0]&2 != 0 {
			cfg.keepRanges = [][2]float64{{float64(int8(data[1])) / 16, float64(int8(data[2])) / 4}}
		}
		points := data[3:]
		n := min(len(points)/2, 40)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if xb := points[2*i]; xb == 255 {
				xs[i] = math.Copysign(0, -1)
			} else {
				xs[i] = float64(int(xb)%16 - 8)
			}
			switch y := int8(points[2*i+1]); y {
			case 120:
				if i > 0 {
					ys[i] = ys[i-1]
				}
			case 121:
				ys[i] = math.Copysign(0, -1)
			case 122:
				ys[i] = 1e300
			case 123:
				ys[i] = -1e300
			case 124:
				ys[i] = 5e-324
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
		s := dataset.Series{Z: "f", X: xs, Y: ys}
		l := legacyGroup(s, cfg)
		if l == nil {
			if group(s, cfg) != nil {
				t.Fatal("a chart too short for the legacy layout grouped")
			}
			return
		}
		for k, v := range groupThreeWays(t, s, cfg, int(data[0]>>2)%n) {
			requireLegacyGroup(t, fmt.Sprintf("x=%v y=%v cfg=%+v grouping %d", xs, ys, cfg, k), v, s, l)
		}
	})
}

// TestGroupMatchesLegacy runs FuzzGroup's checks over 3,000 random charts
// under each of three GROUP configurations: z-normalized, raw, and with a
// keep window.
func TestGroupMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cfgs := map[string]groupConfig{
		"znorm":  {zNormalize: true},
		"raw":    {},
		"window": {zNormalize: true, keepRanges: [][2]float64{{3, 11}, {15.5, 20}}},
	}
	for i := 0; i < 3000; i++ {
		s := randomSeries(rng, 2+rng.Intn(30))
		if i%4 == 0 {
			// Irregular, repeated x.
			for k := 1; k < len(s.X); k++ {
				s.X[k] = s.X[k-1] + float64(rng.Intn(3))
			}
		}
		for name, cfg := range cfgs {
			l := legacyGroup(s, cfg)
			for k, v := range groupThreeWays(t, s, cfg, rng.Intn(len(s.X))) {
				requireLegacyGroup(t, fmt.Sprintf("chart %d %s grouping %d", i, name, k), v, s, l)
			}
		}
	}
}

// TestGroupSharesXAxis: a grouping pass shares the previous chart's x side
// exactly when the x bits match, a pooled hit counts as the previous
// chart, and every chart equals one grouped on its own field by field.
func TestGroupSharesXAxis(t *testing.T) {
	// Both grids cover the skip-window plan's pinned windows.
	grid := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80}
	other := []float64{0, 10, 20, 30, 40, 50, 60, 70, 81}
	mk := func(z string, xs []float64, seed int64) dataset.Series {
		rng := rand.New(rand.NewSource(seed))
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = rng.NormFloat64()
		}
		return dataset.Series{Z: z, X: slices.Clone(xs), Y: ys}
	}
	series := []dataset.Series{mk("a", grid, 1), mk("b", grid, 2), mk("c", other, 3), mk("d", other, 4), mk("e", grid, 5)}
	for name, p := range poolConfigPlans(t) {
		var pool VizPool
		vizs := p.GroupSeriesPooled(&pool, series)
		if len(vizs) != len(series) {
			t.Fatalf("%s: %d charts, want %d", name, len(vizs), len(series))
		}
		_, gcfg := p.groupInput(series)
		for i, v := range vizs {
			requireSameViz(t, fmt.Sprintf("%s chart %d", name, i), v, group(series[i], gcfg))
		}
		if vizs[0].xAxis != vizs[1].xAxis || vizs[2].xAxis != vizs[3].xAxis {
			t.Fatalf("%s: charts on one grid in a row do not share their x side", name)
		}
		if vizs[1].xAxis == vizs[2].xAxis || vizs[3].xAxis == vizs[4].xAxis {
			t.Fatalf("%s: charts on different grids share an x side", name)
		}
		// A second pass: a pooled hit (a) is the previous chart of the new
		// series after it.
		again := p.GroupSeriesPooled(&pool, []dataset.Series{series[0], mk("f", grid, 6)})
		if again[0] != vizs[0] || again[1].xAxis != vizs[0].xAxis {
			t.Fatalf("%s: a chart after a pooled hit on its grid does not share the hit's x side", name)
		}
	}
}

// driftCorpus is the corpus workload's shape: 10,000 DriftPeaks charts of
// 32 points on one x grid.
func driftCorpus() []dataset.Series { return gen.DriftPeaksSeries(10_000, 32, 64, 1) }

// TestGroupedChartFootprint pins the live heap a grouped chart holds on a
// shared x grid, its series included: 10,000 × 32-point DriftPeaks charts
// grouped, their input series dropped, may hold at most 1,400 B each after
// a GC. The legacy layout (legacyGroup) held 2,580 B.
func TestGroupedChartFootprint(t *testing.T) {
	p, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	vizs := p.GroupSeries(driftCorpus())
	runtime.GC()
	runtime.ReadMemStats(&after)
	perChart := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(vizs))
	runtime.KeepAlive(vizs)
	t.Logf("%.0f B of live heap per grouped chart", perChart)
	if perChart > 1400 {
		t.Errorf("a grouped 32-point chart holds %.0f B of live heap, budget 1,400 B", perChart)
	}
}

// BenchmarkGroupSeries times GROUP over the corpus workload's charts
// (10,000 × 32 points on one x grid) and over 120 stocks of 250 days.
func BenchmarkGroupSeries(b *testing.B) {
	p, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		b.Fatal(err)
	}
	stocks, err := dataset.Extract(gen.Stocks(120, 250, 3), dataset.ExtractSpec{Z: "symbol", X: "day", Y: "price"})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		series []dataset.Series
	}{{"corpus", driftCorpus()}, {"stocks", stocks}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.GroupSeries(c.series)
			}
		})
	}
}
