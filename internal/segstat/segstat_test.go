package segstat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestSlopeSimpleLine(t *testing.T) {
	// y = 2x + 1 exactly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9}
	s := FromPoints(xs, ys)
	slope, ok := s.Slope()
	if !ok {
		t.Fatal("expected ok slope")
	}
	if !almostEq(slope, 2, 1e-12) {
		t.Fatalf("slope = %v, want 2", slope)
	}
	ic, ok := s.Intercept()
	if !ok || !almostEq(ic, 1, 1e-12) {
		t.Fatalf("intercept = %v (ok=%v), want 1", ic, ok)
	}
}

func TestSlopeDegenerate(t *testing.T) {
	var s Stats
	if _, ok := s.Slope(); ok {
		t.Fatal("empty stats should not have a slope")
	}
	s.Add(1, 5)
	if _, ok := s.Slope(); ok {
		t.Fatal("single point should not have a slope")
	}
	// Two points at the same x: zero x-variance.
	var v Stats
	v.Add(2, 1)
	v.Add(2, 9)
	if _, ok := v.Slope(); ok {
		t.Fatal("vertical segment should not have a slope")
	}
}

func TestSlopeNegative(t *testing.T) {
	s := FromPoints([]float64{0, 1, 2}, []float64{4, 2, 0})
	slope, ok := s.Slope()
	if !ok || !almostEq(slope, -2, 1e-12) {
		t.Fatalf("slope = %v, want -2", slope)
	}
}

// TestAdditivityTheorem is the core Theorem 5.1 property: the fit computed
// from merged statistics equals the fit computed over all points directly.
func TestAdditivityTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64()*0.01
			ys[i] = r.NormFloat64()*5 + float64(i)*r.Float64()
		}
		cut := 1 + r.Intn(n-1)
		a := FromPoints(xs[:cut], ys[:cut])
		b := FromPoints(xs[cut:], ys[cut:])
		whole := FromPoints(xs, ys)
		merged := Merge(a, b)
		ws, _, wok := whole.Line()
		ms, _, mok := merged.Line()
		if wok != mok {
			return false
		}
		if !wok {
			return true
		}
		wi, _ := whole.Intercept()
		mi, _ := merged.Intercept()
		return almostEq(ws, ms, 1e-9) && almostEq(wi, mi, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMergeAssociative checks Merge is associative and commutative, which the
// SegmentTree relies on when combining partial segments in arbitrary order.
func TestMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Stats {
			var s Stats
			for i := 0; i < 3+r.Intn(5); i++ {
				s.Add(r.Float64()*100, r.NormFloat64()*10)
			}
			return s
		}
		a, b, c := mk(), mk(), mk()
		ab_c := Merge(Merge(a, b), c)
		a_bc := Merge(a, Merge(b, c))
		ba := Merge(b, a)
		ab := Merge(a, b)
		return almostEq(ab_c.SumXY, a_bc.SumXY, 1e-9) &&
			almostEq(ab_c.SumXX, a_bc.SumXX, 1e-9) &&
			almostEq(ab.SumX, ba.SumX, 1e-12) &&
			almostEq(ab.SumY, ba.SumY, 1e-12) &&
			ab.N == ba.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubInverseOfMerge(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b Stats
		for i := 0; i < 5; i++ {
			a.Add(r.Float64()*10, r.Float64()*10)
			b.Add(r.Float64()*10, r.Float64()*10)
		}
		got := Sub(Merge(a, b), b)
		return almostEq(got.SumX, a.SumX, 1e-9) &&
			almostEq(got.SumY, a.SumY, 1e-9) &&
			almostEq(got.SumXY, a.SumXY, 1e-9) &&
			almostEq(got.SumXX, a.SumXX, 1e-9) &&
			got.N == a.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// splitPrefix builds the prefix array over bins that BuildPrefix built
// before prefix arrays were split, entry k merging bins [0, k) one Merge at
// a time, and returns its x and y parts.
func splitPrefix(bins []Stats) ([]XSum, []YSum) {
	x := make([]XSum, 1, len(bins)+1)
	y := make([]YSum, 1, len(bins)+1)
	var acc Stats
	for _, b := range bins {
		acc = Merge(acc, b)
		x = append(x, XSum{SumX: acc.SumX, SumXX: acc.SumXX, N: acc.N})
		y = append(y, YSum{SumY: acc.SumY, SumXY: acc.SumXY})
	}
	return x, y
}

func TestPrefixRange(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	ys := []float64{1, 2, 1, 4, 3, 6, 5, 8}
	bins := make([]Stats, 0, len(xs)-1)
	for i := 0; i+1 < len(xs); i++ {
		var b Stats
		b.Add(xs[i], ys[i])
		b.Add(xs[i+1], ys[i+1])
		bins = append(bins, b)
	}
	x, y := splitPrefix(bins)
	if len(x)-1 != len(bins) || len(y)-1 != len(bins) {
		t.Fatalf("prefix covers %d/%d bins, want %d", len(x)-1, len(y)-1, len(bins))
	}
	// Range over all bins must equal direct merge of all bins.
	var all Stats
	for _, b := range bins {
		all = Merge(all, b)
	}
	got := Range(x, y, 0, len(bins))
	if !almostEq(got.SumXY, all.SumXY, 1e-9) || got.N != all.N {
		t.Fatalf("full range mismatch: got %+v want %+v", got, all)
	}
	// Sub-range equality.
	var mid Stats
	for _, b := range bins[2:5] {
		mid = Merge(mid, b)
	}
	got = Range(x, y, 2, 5)
	if !almostEq(got.SumXX, mid.SumXX, 1e-9) || got.N != mid.N {
		t.Fatalf("sub range mismatch: got %+v want %+v", got, mid)
	}
	// Every range is Sub of the whole prefix entries, bit for bit.
	var pre []Stats
	var acc Stats
	pre = append(pre, acc)
	for _, b := range bins {
		acc = Merge(acc, b)
		pre = append(pre, acc)
	}
	for i := range pre {
		for j := i; j < len(pre); j++ {
			if got, want := Range(x, y, i, j), Sub(pre[j], pre[i]); got != want {
				t.Fatalf("Range(%d, %d) = %+v, want %+v", i, j, got, want)
			}
		}
	}
}

func TestPrefixRangePanics(t *testing.T) {
	x, y := splitPrefix(make([]Stats, 4))
	for _, c := range []struct {
		i, j int
		y    []YSum
	}{{-1, 2, y}, {0, 5, y}, {3, 2, y}, {0, 4, y[:4]}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Range(%d,%d) over %d y sums did not panic", c.i, c.j, len(c.y))
				}
			}()
			Range(x, c.y, c.i, c.j)
		}()
	}
}

func TestZNormalize(t *testing.T) {
	ys := []float64{2, 4, 6, 8}
	ZNormalize(ys)
	if !almostEq(Mean(ys), 0, 1e-12) {
		t.Fatalf("mean after znorm = %v, want 0", Mean(ys))
	}
	if !almostEq(Std(ys), 1, 1e-12) {
		t.Fatalf("std after znorm = %v, want 1", Std(ys))
	}
}

// legacyZNormalize is ZNormalize as it was before MeanStd and ZScore split
// it, kept as the oracle of TestZNormalizeMatchesLegacy.
func legacyZNormalize(ys []float64) {
	if len(ys) == 0 {
		return
	}
	var sum float64
	for _, y := range ys {
		sum += y
	}
	mean := sum / float64(len(ys))
	var varsum float64
	for _, y := range ys {
		d := y - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / float64(len(ys)))
	if std == 0 || math.IsNaN(std) {
		for i := range ys {
			ys[i] -= mean
		}
		return
	}
	for i := range ys {
		ys[i] = (ys[i] - mean) / std
	}
}

// legacyStd is Std as it was before it reported MeanStd's deviation.
func legacyStd(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var v float64
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// TestZNormalizeMatchesLegacy: ZNormalize, which writes ZScore under
// MeanStd's mean and deviation, and Std, which reports MeanStd's, agree
// bit for bit with the one-function form, on hostile values too.
func TestZNormalizeMatchesLegacy(t *testing.T) {
	hostile := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324, 7}
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 2000; iter++ {
		ys := make([]float64, r.Intn(40))
		for i := range ys {
			switch k := r.Intn(10); {
			case k < 2 && i > 0:
				ys[i] = ys[i-1] // constant runs
			case k < 4:
				ys[i] = hostile[r.Intn(len(hostile))]
			default:
				ys[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
			}
		}
		got, want := append([]float64(nil), ys...), append([]float64(nil), ys...)
		ZNormalize(got)
		legacyZNormalize(want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: ZNormalize[%d] = %v, want %v", ys, i, got[i], want[i])
			}
		}
		mean, std := MeanStd(ys)
		for i, y := range ys {
			if z := ZScore(y, mean, std); math.Float64bits(z) != math.Float64bits(want[i]) {
				t.Fatalf("%v: ZScore of %d = %v, want %v", ys, i, z, want[i])
			}
		}
		if s, want := Std(ys), legacyStd(ys); math.Float64bits(s) != math.Float64bits(std) || math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("%v: Std = %v, MeanStd's = %v, want %v", ys, s, std, want)
		}
	}
}

func TestZNormalizeConstant(t *testing.T) {
	ys := []float64{5, 5, 5}
	ZNormalize(ys)
	for _, y := range ys {
		if y != 0 {
			t.Fatalf("constant series should normalize to zeros, got %v", ys)
		}
	}
}

func TestZNormalizeEmpty(t *testing.T) {
	ZNormalize(nil) // must not panic
}

// TestZNormalizeInvariance: z-normalization makes the series invariant to
// affine transforms a·y + b (a>0), the property the paper relies on for
// scale/translation invariance.
func TestZNormalizeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = r.NormFloat64() * 10
		}
		// Ensure non-constant.
		ys[0] = ys[1] + 1
		a := 0.5 + r.Float64()*10
		b := r.NormFloat64() * 100
		scaled := make([]float64, n)
		for i := range ys {
			scaled[i] = a*ys[i] + b
		}
		orig := append([]float64(nil), ys...)
		ZNormalize(orig)
		ZNormalize(scaled)
		for i := range orig {
			if !almostEq(orig[i], scaled[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty mean/std should be 0")
	}
	if m := Mean([]float64{1, 2, 3}); !almostEq(m, 2, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if s := Std([]float64{2, 2, 2}); s != 0 {
		t.Fatalf("std of constant = %v", s)
	}
}

// TestExtremes checks the streaming capped-extreme tracker against a full
// sort of the observed values.
func TestExtremes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rr := 1 + r.Intn(6)
		n := r.Intn(40)
		vals := make([]float64, n)
		e := NewExtremes(rr)
		for i := range vals {
			vals[i] = r.NormFloat64() * 10
			e.Observe(vals[i])
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		k := rr
		if n < k {
			k = n
		}
		low, high := e.Low(), e.High()
		if len(low) != k || len(high) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if low[i] != sorted[i] || high[i] != sorted[n-1-i] {
				return false
			}
		}
		lp, hp := e.PrefixSums()
		if len(lp) != k+1 || len(hp) != k+1 {
			return false
		}
		var ls, hs float64
		for i := 0; i < k; i++ {
			ls += low[i]
			hs += high[i]
			if lp[i+1] != ls || hp[i+1] != hs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
