// Package score implements ShapeSearch's perceptually-aware scoring
// methodology (Section 5.2 of the paper): the tan⁻¹-based pattern scores of
// Table 5, the operator combinators of Table 6, quantifier scoring, the
// SegmentTree score bounds of Table 7, sketch similarity, and the
// user-defined pattern (UDP) registry.
//
// All scores live in [−1, 1]: 1 is a perfect match, −1 the worst. Scores are
// computed from the slope of the least-squares line fitted over a visual
// segment, which makes them robust to local fluctuations — the "blurry"
// matching at the heart of the system.
package score

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"shapesearch/internal/shape"
)

// WorstScore is the score of a failed match (for example, an unsatisfied
// LOCATION constraint).
const WorstScore = -1.0

// BestScore is the score of a perfect match.
const BestScore = 1.0

// Up scores an increasing pattern: 2·tan⁻¹(slope)/π, rising from −1 at
// slope −∞ to +1 at slope +∞ with diminishing returns (Table 5).
func Up(slope float64) float64 {
	return 2 * math.Atan(slope) / math.Pi
}

// Down scores a decreasing pattern: the negation of Up.
func Down(slope float64) float64 {
	return -Up(slope)
}

// Flat scores a stable pattern: 1 − |4·tan⁻¹(slope)/π|, which is +1 at slope
// 0 and −1 at slope ±∞.
func Flat(slope float64) float64 {
	return 1 - math.Abs(4*math.Atan(slope)/math.Pi)
}

// Theta scores a θ=x pattern for a target angle in degrees: +1 when the
// fitted angle equals the target, decreasing linearly in angular deviation
// to −1 at the farthest achievable angle (±90°). The paper's printed formula
// is typographically garbled; this implements its stated semantics.
func Theta(slope, targetDeg float64) float64 {
	target := targetDeg * math.Pi / 180
	angle := math.Atan(slope)
	dev := math.Abs(angle - target)
	maxDev := math.Pi/2 + math.Abs(target)
	if maxDev == 0 {
		return BestScore
	}
	return 1 - 2*dev/maxDev
}

// SharpnessFactor controls how much steeper a slope must be to earn the same
// score under the ">>" (sharper) modifier, and how much gentler under ">"
// (gradual). See Modified.
const SharpnessFactor = 4.0

// Modified applies a non-positional MODIFIER to a directional pattern score:
// m=>> demands sharper movement (the slope is attenuated before scoring, so
// only steep trends score high) and m=> rewards gradual movement (the slope
// is amplified, so gentle trends saturate early). Slope sign is handled by
// the underlying pattern.
func Modified(kind shape.ModifierKind, base func(float64) float64, slope float64) float64 {
	switch kind {
	case shape.ModMuchMore, shape.ModMuchLess:
		return base(slope / SharpnessFactor)
	case shape.ModMore, shape.ModLess:
		return base(slope * SharpnessFactor)
	default:
		return base(slope)
	}
}

// ForKind scores a simple pattern kind against a fitted slope. target is the
// angle for PatSlope and ignored otherwise. PatPosition, PatUDP and
// PatNested need context beyond a slope and are handled by the evaluator.
func ForKind(kind shape.PatternKind, slope, target float64) float64 {
	switch kind {
	case shape.PatUp:
		return Up(slope)
	case shape.PatDown:
		return Down(slope)
	case shape.PatFlat:
		return Flat(slope)
	case shape.PatSlope:
		return Theta(slope, target)
	case shape.PatAny, shape.PatNone:
		return BestScore
	case shape.PatEmpty:
		return WorstScore
	default:
		return WorstScore
	}
}

// ForKindAngle is ForKind for an unmodified pattern given the precomputed
// fitted angle atan(slope). Every Table 5 score is a function of that angle;
// sharing it across the patterns evaluated over one range (the executor's
// per-candidate fit memo) saves the dominant atan without changing a bit:
// each case reproduces the exact operation sequence of its slope-based
// counterpart after the atan.
func ForKindAngle(kind shape.PatternKind, angle, target float64) float64 {
	switch kind {
	case shape.PatUp:
		return 2 * angle / math.Pi
	case shape.PatDown:
		return -(2 * angle / math.Pi)
	case shape.PatFlat:
		return 1 - math.Abs(4*angle/math.Pi)
	case shape.PatSlope:
		t := target * math.Pi / 180
		dev := math.Abs(angle - t)
		maxDev := math.Pi/2 + math.Abs(t)
		if maxDev == 0 {
			return BestScore
		}
		return 1 - 2*dev/maxDev
	case shape.PatAny, shape.PatNone:
		return BestScore
	case shape.PatEmpty:
		return WorstScore
	default:
		return WorstScore
	}
}

// Concat combines a sequence of sub-scores: the arithmetic mean (Table 6).
func Concat(scores ...float64) float64 {
	if len(scores) == 0 {
		return WorstScore
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores))
}

// And combines simultaneous sub-scores: the minimum (Table 6).
func And(scores ...float64) float64 {
	if len(scores) == 0 {
		return WorstScore
	}
	min := scores[0]
	for _, s := range scores[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// Or combines alternative sub-scores: the maximum (Table 6).
func Or(scores ...float64) float64 {
	if len(scores) == 0 {
		return WorstScore
	}
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	return max
}

// Not negates a sub-score (Table 6).
func Not(s float64) float64 { return -s }

// Clamp bounds a score to [−1, 1].
func Clamp(s float64) float64 {
	if s > BestScore {
		return BestScore
	}
	if s < WorstScore {
		return WorstScore
	}
	return s
}

// PositionScore scores a POSITION ($) reference: how the current segment's
// slope compares with the referenced segment's slope under the given
// modifier (Section 3.1). Differences are measured in normalized angle so
// the score inherits the perceptual diminishing-returns behaviour.
func PositionScore(mod shape.Modifier, slope, refSlope float64) float64 {
	d := (math.Atan(slope) - math.Atan(refSlope)) * 2 / math.Pi
	switch mod.Kind {
	case shape.ModMore:
		return Clamp(2 * d)
	case shape.ModLess:
		return Clamp(-2 * d)
	case shape.ModMuchMore:
		return Clamp(4 * (d - 0.25))
	case shape.ModMuchLess:
		return Clamp(4 * (-d - 0.25))
	case shape.ModEqual:
		return Clamp(1 - 4*math.Abs(d))
	case shape.ModMoreFactor:
		dd := (math.Atan(slope) - math.Atan(mod.Factor*refSlope)) * 2 / math.Pi
		return Clamp(4 * dd)
	case shape.ModLessFactor:
		dd := (math.Atan(mod.Factor*refSlope) - math.Atan(slope)) * 2 / math.Pi
		return Clamp(4 * dd)
	default:
		// An unmodified $ref means "same pattern as the referenced segment":
		// score similarity of slopes.
		return Clamp(1 - 4*math.Abs(d))
	}
}

// DefaultQuantifierThreshold is the positive-score threshold above which a
// sub-segment counts as an occurrence of a pattern (Section 5.2 "using zero
// as a threshold, which can be overridden by users").
const DefaultQuantifierThreshold = 0.0

// Quantifier scores a quantified pattern given the scores of its candidate
// occurrences within the visual segment. Occurrences scoring above threshold
// count toward the bounds; if the count violates the quantifier the score is
// −1 (Section 5.2). Otherwise the score averages the top max(min-bound, 1)
// occurrence scores — the minimum number of sub-segments that satisfy the
// constraint. A satisfied zero-occurrence constraint (pure "at most") scores
// 0, a neutral match.
func Quantifier(mod shape.Modifier, occurrenceScores []float64, threshold float64) float64 {
	if mod.Kind != shape.ModQuantifier {
		return WorstScore
	}
	positive := make([]float64, 0, len(occurrenceScores))
	for _, s := range occurrenceScores {
		if s > threshold {
			positive = append(positive, s)
		}
	}
	if !mod.Satisfies(len(positive)) {
		return WorstScore
	}
	if len(positive) == 0 {
		return 0
	}
	need := 1
	if mod.HasMin && mod.Min > 1 {
		need = mod.Min
	}
	if need > len(positive) {
		need = len(positive)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(positive)))
	return Concat(positive[:need]...)
}

// PositiveRuns returns the index ranges [start, end) of maximal runs of
// consecutive entries with score > threshold. The evaluator uses runs of
// positively-scoring bins as the occurrences of a quantified pattern: a
// trendline "rises twice" when it has two maximal increasing stretches.
func PositiveRuns(scores []float64, threshold float64) [][2]int {
	return PositiveRunsInto(nil, scores, threshold)
}

// PositiveRunsInto is PositiveRuns appending into a reusable buffer
// (typically sliced to [:0] by the caller); the quantifier hot path uses it
// to avoid a per-range allocation.
func PositiveRunsInto(runs [][2]int, scores []float64, threshold float64) [][2]int {
	start := -1
	for i, s := range scores {
		if s > threshold {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			runs = append(runs, [2]int{start, i})
			start = -1
		}
	}
	if start >= 0 {
		runs = append(runs, [2]int{start, len(scores)})
	}
	return runs
}

// Bounds implements Table 7 in its set form: the tightest interval
// guaranteed to contain the score of a simple-pattern ShapeSegment whose
// fitted slope lies among (or between) the given slopes. It reduces to
// BoundsInterval over the slope extremes: for up/down the score lies
// between the min and max slope score; for flat and θ=x the upper bound is
// only valid when all slopes sit on one side of the target, otherwise it is
// 1 (the maximum possible value).
func Bounds(kind shape.PatternKind, targetDeg float64, slopes []float64) (lo, hi float64) {
	if len(slopes) == 0 {
		return WorstScore, BestScore
	}
	sLo, sHi := slopes[0], slopes[0]
	for _, s := range slopes[1:] {
		if s < sLo {
			sLo = s
		}
		if s > sHi {
			sHi = s
		}
	}
	return BoundsInterval(kind, shape.ModNone, targetDeg, sLo, sHi)
}

// BoundsInterval bounds the score of a simple-pattern ShapeSegment whose
// fitted slope is only known to lie in [sLo, sHi] (the interval form of the
// Table 7 bounds, with MODIFIER support). Sharp/gradual modifiers rescale
// the slope before scoring (see Modified) and the rescaling is monotone, so
// the interval maps through it exactly. For flat and θ=x the score is not
// monotone in the slope: when the pattern's pivot slope falls inside the
// interval the upper bound is 1, otherwise both bounds come from the
// interval's endpoints. Quantified patterns and kinds whose score is not
// slope-determined are NOT handled here — callers must stay conservative
// for those.
func BoundsInterval(kind shape.PatternKind, mod shape.ModifierKind, targetDeg, sLo, sHi float64) (lo, hi float64) {
	if sLo > sHi {
		sLo, sHi = sHi, sLo
	}
	// Map the slope interval through the modifier's monotone rescaling so
	// the endpoint evaluation below sees the effective slopes.
	switch mod {
	case shape.ModMuchMore, shape.ModMuchLess:
		sLo, sHi = sLo/SharpnessFactor, sHi/SharpnessFactor
	case shape.ModMore, shape.ModLess:
		sLo, sHi = sLo*SharpnessFactor, sHi*SharpnessFactor
	case shape.ModNone:
	default:
		// Positional/quantifier modifiers reshape the score beyond a slope
		// rescaling; stay conservative.
		return WorstScore, BestScore
	}
	a := ForKind(kind, sLo, targetDeg)
	b := ForKind(kind, sHi, targetDeg)
	lo, hi = math.Min(a, b), math.Max(a, b)
	switch kind {
	case shape.PatFlat:
		if sLo <= 0 && 0 <= sHi {
			hi = BestScore
		}
	case shape.PatSlope:
		if pivot := math.Tan(targetDeg * math.Pi / 180); sLo <= pivot && pivot <= sHi {
			hi = BestScore
		}
	}
	return lo, hi
}

// SketchConfig controls precise sketch matching.
type SketchConfig struct {
	// Tau is the z-normalized RMS distance mapped to score −1. Distances
	// are linearly rescaled so 0 → +1 and ≥Tau → −1.
	Tau float64
}

// DefaultSketchConfig matches the system defaults.
func DefaultSketchConfig() SketchConfig { return SketchConfig{Tau: 2.0} }

// SketchL2 scores how precisely a visual segment matches a sketched
// trendline using the L2 norm, normalized into [−1, 1] (Table 5, "v"). Both
// series are resampled to a common length and z-normalized before
// comparison.
func (c SketchConfig) SketchL2(queryY, targetY []float64) float64 {
	if len(queryY) == 0 || len(targetY) == 0 {
		return WorstScore
	}
	n := len(queryY)
	if len(targetY) > n {
		n = len(targetY)
	}
	q := Resample(queryY, n)
	t := Resample(targetY, n)
	znorm(q)
	znorm(t)
	var sum float64
	for i := range q {
		d := q[i] - t[i]
		sum += d * d
	}
	rms := math.Sqrt(sum / float64(n))
	tau := c.Tau
	if tau <= 0 {
		tau = 2.0
	}
	return Clamp(1 - 2*rms/tau)
}

// Resample linearly interpolates ys onto n evenly spaced sample positions.
func Resample(ys []float64, n int) []float64 {
	if n <= 0 || len(ys) == 0 {
		return nil
	}
	out := make([]float64, n)
	if len(ys) == 1 {
		for i := range out {
			out[i] = ys[0]
		}
		return out
	}
	if n == 1 {
		out[0] = ys[0]
		return out
	}
	scale := float64(len(ys)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		j := int(pos)
		if j >= len(ys)-1 {
			out[i] = ys[len(ys)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = ys[j]*(1-frac) + ys[j+1]*frac
	}
	return out
}

func znorm(ys []float64) {
	var sum float64
	for _, y := range ys {
		sum += y
	}
	mean := sum / float64(len(ys))
	var v float64
	for _, y := range ys {
		d := y - mean
		v += d * d
	}
	std := math.Sqrt(v / float64(len(ys)))
	if std == 0 {
		for i := range ys {
			ys[i] -= mean
		}
		return
	}
	for i := range ys {
		ys[i] = (ys[i] - mean) / std
	}
}

// UDPFunc is a user-defined pattern scorer: it receives the x and y values
// of a visual segment and must return a score in [−1, 1]. ShapeSearch treats
// UDPs as black boxes and performs no optimization across them.
type UDPFunc func(xs, ys []float64) float64

// Registry holds named user-defined patterns. The zero value is ready to
// use; Registry is safe for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]UDPFunc
}

// NewRegistry returns an empty UDP registry.
func NewRegistry() *Registry { return &Registry{} }

// Register installs (or replaces) a named pattern. Names are
// case-insensitive: Register folds name to lower case, as the regex lexer
// folds every identifier, so "MyShape" is found by [p=MyShape] and
// [p=myshape] alike. It returns an error for empty names or nil functions.
func (r *Registry) Register(name string, fn UDPFunc) error {
	if name == "" {
		return fmt.Errorf("score: UDP name must not be empty")
	}
	if fn == nil {
		return fmt.Errorf("score: UDP %q must not be nil", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fns == nil {
		r.fns = make(map[string]UDPFunc)
	}
	r.fns[strings.ToLower(name)] = fn
	return nil
}

// Lookup retrieves a named pattern, folding name to lower case as
// Register does.
func (r *Registry) Lookup(name string) (UDPFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.fns[strings.ToLower(name)]
	return fn, ok
}

// Names lists registered pattern names, lower-cased, in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fns))
	//lint:ignore floatdeterminism key collection is order-free; the result is sorted before returning
	for n := range r.fns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
