package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shapesearch/internal/shape"
)

func TestUpScoreProperties(t *testing.T) {
	if Up(0) != 0 {
		t.Errorf("Up(0) = %v, want 0", Up(0))
	}
	if s := Up(1); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Up(1) = %v, want 0.5 (45 degrees)", s)
	}
	if s := Up(math.Inf(1)); math.Abs(s-1) > 1e-12 {
		t.Errorf("Up(inf) = %v, want 1", s)
	}
	if s := Up(-1); math.Abs(s+0.5) > 1e-12 {
		t.Errorf("Up(-1) = %v, want -0.5", s)
	}
}

// TestUpMonotoneAndBounded: the paper's perceptual requirements — up score
// increases with slope, is bounded in [−1,1], and is antisymmetric with down.
func TestUpMonotoneAndBounded(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		sa, sb := Up(a), Up(b)
		if sa < -1 || sa > 1 || sb < -1 || sb > 1 {
			return false
		}
		if a < b && sa > sb {
			return false
		}
		return Down(a) == -sa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDiminishingReturns: the same slope increase moves the score less the
// steeper the trend already is (law of diminishing returns, Section 5.2,
// modeled by tan⁻¹). Equivalently, an angle change 10°→30° requires a much
// smaller slope change than 60°→80° for the same score gain.
func TestDiminishingReturns(t *testing.T) {
	low := Up(0.6) - Up(0.2)  // gentle trends: score moves quickly
	high := Up(5.0) - Up(4.6) // steep trends: same slope delta, tiny gain
	if low <= high {
		t.Fatalf("expected diminishing returns: Δ at low slope %v should exceed Δ at high slope %v", low, high)
	}
	tan := func(deg float64) float64 { return math.Tan(deg * math.Pi / 180) }
	slopeLow := tan(30) - tan(10)
	slopeHigh := tan(80) - tan(60)
	if slopeLow >= slopeHigh {
		t.Fatal("equal score gains should cost more slope at steep angles")
	}
}

func TestFlatScore(t *testing.T) {
	if Flat(0) != 1 {
		t.Errorf("Flat(0) = %v, want 1", Flat(0))
	}
	if s := Flat(math.Inf(1)); math.Abs(s+1) > 1e-12 {
		t.Errorf("Flat(inf) = %v, want -1", s)
	}
	if s := Flat(1); math.Abs(s-0) > 1e-12 { // 45° is halfway: 1-4*45/180 = 0
		t.Errorf("Flat(1) = %v, want 0", s)
	}
	if Flat(2) != Flat(-2) {
		t.Error("Flat should be symmetric in slope sign")
	}
}

func TestThetaScore(t *testing.T) {
	tan45 := math.Tan(45 * math.Pi / 180)
	if s := Theta(tan45, 45); math.Abs(s-1) > 1e-12 {
		t.Errorf("Theta at exact angle = %v, want 1", s)
	}
	// Farthest angle from +45 is −90: score −1.
	if s := Theta(math.Inf(-1), 45); math.Abs(s+1) > 1e-9 {
		t.Errorf("Theta at farthest = %v, want -1", s)
	}
	// Deviation decreases score monotonically.
	if Theta(math.Tan(50*math.Pi/180), 45) >= 1 {
		t.Error("off-target theta should score below 1")
	}
	if Theta(math.Tan(40*math.Pi/180), 45) <= Theta(math.Tan(10*math.Pi/180), 45) {
		t.Error("closer angle should score higher")
	}
}

func TestForKind(t *testing.T) {
	if ForKind(shape.PatAny, 0.3, 0) != 1 {
		t.Error("* should score 1")
	}
	if ForKind(shape.PatEmpty, 0.3, 0) != -1 {
		t.Error("empty should score -1")
	}
	if ForKind(shape.PatUp, 1, 0) != Up(1) {
		t.Error("ForKind up mismatch")
	}
	if ForKind(shape.PatSlope, 1, 45) != Theta(1, 45) {
		t.Error("ForKind theta mismatch")
	}
}

func TestOperatorCombinators(t *testing.T) {
	if s := Concat(1, 0, -1); s != 0 {
		t.Errorf("Concat = %v, want 0", s)
	}
	if s := And(0.5, -0.2, 0.9); s != -0.2 {
		t.Errorf("And = %v, want -0.2", s)
	}
	if s := Or(0.5, -0.2, 0.9); s != 0.9 {
		t.Errorf("Or = %v, want 0.9", s)
	}
	if Not(0.7) != -0.7 {
		t.Error("Not should negate")
	}
	if Concat() != WorstScore || And() != WorstScore || Or() != WorstScore {
		t.Error("empty combinators should be worst score")
	}
}

// TestBoundednessProperty is the paper's Property 5.1: operator outputs are
// bounded by the min and max of their inputs (in absolute value for NOT).
func TestBoundednessProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, r := range raw {
			scores[i] = Clamp(math.Mod(r, 2))
			if math.IsNaN(scores[i]) {
				scores[i] = 0
			}
		}
		lo, hi := scores[0], scores[0]
		for _, s := range scores {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		eps := 1e-9
		for _, v := range []float64{Concat(scores...), And(scores...), Or(scores...)} {
			if v < lo-eps || v > hi+eps {
				return false
			}
		}
		n := Not(scores[0])
		return math.Abs(n) <= math.Max(math.Abs(lo), math.Abs(hi))+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPositionScore(t *testing.T) {
	less := shape.Modifier{Kind: shape.ModLess}
	if s := PositionScore(less, 0.2, 1.0); s <= 0 {
		t.Errorf("slower-than-ref should be positive, got %v", s)
	}
	if s := PositionScore(less, 2.0, 1.0); s >= 0 {
		t.Errorf("faster-than-ref under m=< should be negative, got %v", s)
	}
	eq := shape.Modifier{Kind: shape.ModEqual}
	if s := PositionScore(eq, 1.0, 1.0); s != 1 {
		t.Errorf("equal slopes under m== should be 1, got %v", s)
	}
	more := shape.Modifier{Kind: shape.ModMore}
	if s := PositionScore(more, 2.0, 1.0); s <= 0 {
		t.Errorf("steeper under m=> should be positive, got %v", s)
	}
	// m=<1/2: slope must be at most half the reference.
	half := shape.Modifier{Kind: shape.ModLessFactor, Factor: 0.5}
	if s := PositionScore(half, 0.3, 1.0); s <= 0 {
		t.Errorf("0.3 <= 0.5*1.0 should be positive, got %v", s)
	}
	if s := PositionScore(half, 0.8, 1.0); s >= 0 {
		t.Errorf("0.8 > 0.5*1.0 should be negative, got %v", s)
	}
	atLeast2x := shape.Modifier{Kind: shape.ModMoreFactor, Factor: 2}
	if s := PositionScore(atLeast2x, 2.5, 1.0); s <= 0 {
		t.Errorf("2.5 >= 2*1.0 should be positive, got %v", s)
	}
}

func TestModified(t *testing.T) {
	// Sharper up demands steeper slopes: a 45° slope scores lower under >>.
	plain := Up(1)
	sharp := Modified(shape.ModMuchMore, Up, 1)
	if sharp >= plain {
		t.Errorf("sharp(1)=%v should be below plain(1)=%v", sharp, plain)
	}
	// Gradual up saturates early: a gentle slope scores higher under >.
	gentle := Modified(shape.ModMore, Up, 0.2)
	if gentle <= Up(0.2) {
		t.Errorf("gradual(0.2)=%v should exceed plain(0.2)=%v", gentle, Up(0.2))
	}
	if Modified(shape.ModNone, Up, 1) != plain {
		t.Error("no modifier should be identity")
	}
}

func TestQuantifier(t *testing.T) {
	atLeast2 := shape.Modifier{Kind: shape.ModQuantifier, Min: 2, HasMin: true}
	// Two positive occurrences satisfy {2,}.
	s := Quantifier(atLeast2, []float64{0.8, 0.6, -0.5}, 0)
	if math.Abs(s-0.7) > 1e-12 {
		t.Errorf("score = %v, want 0.7 (mean of top 2)", s)
	}
	// One positive occurrence fails {2,}.
	if s := Quantifier(atLeast2, []float64{0.8, -0.6}, 0); s != WorstScore {
		t.Errorf("unsatisfied quantifier = %v, want -1", s)
	}
	atMost1 := shape.Modifier{Kind: shape.ModQuantifier, Max: 1, HasMax: true}
	if s := Quantifier(atMost1, []float64{0.8, 0.7}, 0); s != WorstScore {
		t.Errorf("exceeded at-most = %v, want -1", s)
	}
	if s := Quantifier(atMost1, []float64{-0.8, -0.7}, 0); s != 0 {
		t.Errorf("satisfied zero-occurrence = %v, want 0", s)
	}
	exactly2 := shape.Modifier{Kind: shape.ModQuantifier, Min: 2, Max: 2, HasMin: true, HasMax: true}
	if s := Quantifier(exactly2, []float64{0.9, 0.5, 0.4}, 0); s != WorstScore {
		t.Errorf("3 occurrences under {2} = %v, want -1", s)
	}
	if s := Quantifier(shape.Modifier{Kind: shape.ModNone}, []float64{1}, 0); s != WorstScore {
		t.Error("non-quantifier modifier should be rejected")
	}
}

func TestPositiveRuns(t *testing.T) {
	runs := PositiveRuns([]float64{0.5, 0.2, -0.1, 0.3, 0.4, -0.2, -0.3, 0.1}, 0)
	want := [][2]int{{0, 2}, {3, 5}, {7, 8}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	if got := PositiveRuns(nil, 0); got != nil {
		t.Errorf("empty input should give no runs, got %v", got)
	}
	if got := PositiveRuns([]float64{-1, -1}, 0); got != nil {
		t.Errorf("all-negative input should give no runs, got %v", got)
	}
}

func TestBoundsUpDown(t *testing.T) {
	slopes := []float64{-1, 0.5, 2}
	lo, hi := Bounds(shape.PatUp, 0, slopes)
	if lo != Up(-1) || hi != Up(2) {
		t.Errorf("up bounds = [%v, %v], want [%v, %v]", lo, hi, Up(-1), Up(2))
	}
	lo, hi = Bounds(shape.PatDown, 0, slopes)
	if lo != Down(2) || hi != Down(-1) {
		t.Errorf("down bounds = [%v, %v]", lo, hi)
	}
}

func TestBoundsFlatMixedSigns(t *testing.T) {
	// Slopes straddle 0: a flat fit could emerge from cancellation, so the
	// upper bound must be 1 (Table 7).
	lo, hi := Bounds(shape.PatFlat, 0, []float64{-2, 3})
	if hi != 1 {
		t.Errorf("flat hi with mixed slopes = %v, want 1", hi)
	}
	if lo != Flat(3) {
		t.Errorf("flat lo = %v, want %v", lo, Flat(3))
	}
	// All positive slopes: bound is the max node score.
	lo, hi = Bounds(shape.PatFlat, 0, []float64{0.5, 2})
	if hi != Flat(0.5) {
		t.Errorf("flat hi with one-sided slopes = %v, want %v", hi, Flat(0.5))
	}
	_ = lo
}

func TestBoundsTheta(t *testing.T) {
	target := 45.0
	pivot := math.Tan(target * math.Pi / 180)
	// All below the target slope: bound from node scores.
	_, hi := Bounds(shape.PatSlope, target, []float64{0.1, 0.5})
	if hi == 1 {
		t.Error("one-sided theta bound should not be forced to 1")
	}
	// Straddling the target: upper bound 1.
	_, hi = Bounds(shape.PatSlope, target, []float64{pivot - 0.5, pivot + 0.5})
	if hi != 1 {
		t.Errorf("straddling theta hi = %v, want 1", hi)
	}
}

// TestBoundsContainMergedScore: merging two adjacent segments yields a slope
// between the child slopes (for evenly spaced x), so the merged score must
// lie within the Table 7 bounds. This is the invariant the pruning stage
// relies on.
func TestBoundsContainMergedScore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s1 := rng.NormFloat64() * 3
		s2 := rng.NormFloat64() * 3
		merged := (s1 + s2) / 2 // slope of the combined fit over equal halves
		for _, kind := range []shape.PatternKind{shape.PatUp, shape.PatDown, shape.PatFlat} {
			lo, hi := Bounds(kind, 0, []float64{s1, s2})
			got := ForKind(kind, merged, 0)
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Fatalf("kind %v: merged score %v outside [%v, %v] (slopes %v, %v)",
					kind, got, lo, hi, s1, s2)
			}
		}
	}
}

func TestSketchL2(t *testing.T) {
	cfg := DefaultSketchConfig()
	a := []float64{0, 1, 2, 3, 4}
	if s := cfg.SketchL2(a, a); math.Abs(s-1) > 1e-9 {
		t.Errorf("identical series = %v, want 1", s)
	}
	// Affine transform of the same shape scores 1 after z-normalization.
	b := []float64{10, 12, 14, 16, 18}
	if s := cfg.SketchL2(a, b); math.Abs(s-1) > 1e-9 {
		t.Errorf("affine series = %v, want 1", s)
	}
	// Opposite shape scores poorly.
	c := []float64{4, 3, 2, 1, 0}
	if s := cfg.SketchL2(a, c); s > -0.5 {
		t.Errorf("opposite series = %v, want strongly negative", s)
	}
	if s := cfg.SketchL2(nil, a); s != WorstScore {
		t.Error("empty query should be worst score")
	}
}

func TestSketchL2DifferentLengths(t *testing.T) {
	cfg := DefaultSketchConfig()
	short := []float64{0, 1, 2}
	long := []float64{0, 0.5, 1, 1.5, 2}
	if s := cfg.SketchL2(short, long); math.Abs(s-1) > 1e-9 {
		t.Errorf("same line at different sampling = %v, want 1", s)
	}
}

func TestResample(t *testing.T) {
	got := Resample([]float64{0, 2}, 3)
	want := []float64{0, 1, 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Resample = %v, want %v", got, want)
		}
	}
	if got := Resample([]float64{7}, 4); len(got) != 4 || got[2] != 7 {
		t.Fatalf("Resample single = %v", got)
	}
	if Resample(nil, 3) != nil {
		t.Error("Resample(nil) should be nil")
	}
	if got := Resample([]float64{1, 2, 3}, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Resample to 1 = %v", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", func(xs, ys []float64) float64 { return 0 }); err == nil {
		t.Error("empty name should error")
	}
	if err := r.Register("peak", nil); err == nil {
		t.Error("nil func should error")
	}
	if err := r.Register("peak", func(xs, ys []float64) float64 { return 0.5 }); err != nil {
		t.Fatal(err)
	}
	fn, ok := r.Lookup("peak")
	if !ok || fn(nil, nil) != 0.5 {
		t.Fatal("lookup failed")
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("missing UDP should not be found")
	}
	r.Register("valley", func(xs, ys []float64) float64 { return -0.5 })
	names := r.Names()
	if len(names) != 2 || names[0] != "peak" || names[1] != "valley" {
		t.Errorf("Names = %v", names)
	}
	// Names fold to lower case on both sides, as the regex lexer folds
	// identifiers: re-registering "Valley" replaces "valley".
	r.Register("Valley", func(xs, ys []float64) float64 { return -0.25 })
	if fn, ok := r.Lookup("VALLEY"); !ok || fn(nil, nil) != -0.25 {
		t.Fatal("case-folded lookup failed")
	}
	if names := r.Names(); len(names) != 2 || names[1] != "valley" {
		t.Errorf("Names after re-registering Valley = %v", names)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5) != 1 || Clamp(-5) != -1 || Clamp(0.3) != 0.3 {
		t.Error("Clamp broken")
	}
}

// TestBoundsIntervalModifiers: sharp/gradual modifiers rescale the slope
// before scoring; the interval bound must map through that rescaling
// exactly, and unknown modifiers must stay conservative.
func TestBoundsIntervalModifiers(t *testing.T) {
	lo, hi := BoundsInterval(shape.PatUp, shape.ModMuchMore, 0, -1, 2)
	if want := Up(-1.0 / SharpnessFactor); lo != want {
		t.Errorf("sharp up lo = %v, want %v", lo, want)
	}
	if want := Up(2.0 / SharpnessFactor); hi != want {
		t.Errorf("sharp up hi = %v, want %v", hi, want)
	}
	lo, hi = BoundsInterval(shape.PatDown, shape.ModMore, 0, -1, 2)
	if want := Down(2.0 * SharpnessFactor); lo != want {
		t.Errorf("gradual down lo = %v, want %v", lo, want)
	}
	if want := Down(-1.0 * SharpnessFactor); hi != want {
		t.Errorf("gradual down hi = %v, want %v", hi, want)
	}
	// A sharp flat's pivot is unchanged by rescaling: straddling zero still
	// forces the upper bound to 1.
	if _, hi := BoundsInterval(shape.PatFlat, shape.ModMuchMore, 0, -0.1, 0.1); hi != 1 {
		t.Errorf("sharp flat straddling zero hi = %v, want 1", hi)
	}
	// Modifiers that are not slope rescalings stay at the trivial bounds.
	if lo, hi := BoundsInterval(shape.PatUp, shape.ModEqual, 0, -1, 2); lo != WorstScore || hi != BestScore {
		t.Errorf("non-rescaling modifier bounds = [%v, %v], want [-1, 1]", lo, hi)
	}
}

// TestBoundsIntervalMatchesSetForm: the legacy slope-set Bounds must agree
// with BoundsInterval over the set's extremes — they are the same Table 7
// statement.
func TestBoundsIntervalMatchesSetForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []shape.PatternKind{shape.PatUp, shape.PatDown, shape.PatFlat, shape.PatSlope}
	for trial := 0; trial < 200; trial++ {
		slopes := make([]float64, 2+rng.Intn(6))
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := range slopes {
			slopes[i] = rng.NormFloat64() * 3
			mn = math.Min(mn, slopes[i])
			mx = math.Max(mx, slopes[i])
		}
		target := rng.NormFloat64() * 40
		for _, kind := range kinds {
			slo, shi := Bounds(kind, target, slopes)
			ilo, ihi := BoundsInterval(kind, shape.ModNone, target, mn, mx)
			if slo != ilo || shi != ihi {
				t.Fatalf("%v: set form [%v, %v] != interval form [%v, %v]", kind, slo, shi, ilo, ihi)
			}
		}
	}
}
