package sketch

import "shapesearch/internal/segstat"

// Directions summarizes a (normalized) series, with x values xs and y
// values y(0), …, y(len(xs)−1), into w coarse per-window direction codes: +1 where the window's least-squares slope rises
// perceptibly, −1 where it falls, 0 where it reads flat or is degenerate.
// It is the piecewise-aggregate sibling of blurry-sketch inference: the
// same "what would this window look like on a chart" question, answered at
// fixed resolution instead of by segmentation.
//
// The corpus shape index uses the codes as its build-time bucketing key —
// visualizations with matching direction profiles bucket together, which
// keeps merged slope envelopes tight. The codes are deterministic for a
// given input and never consulted at query time, so they influence pruning
// effectiveness only, never correctness. y is called, never kept, so a
// caller that computes its y values on the fly stores none of them.
func Directions(xs []float64, y func(i int) float64, w int) []int8 {
	n := len(xs)
	if w < 1 || n < 2 {
		return nil
	}
	if w > n-1 {
		w = n - 1
	}
	// flatSlope separates "reads flat" from "reads trending" on the
	// normalized chart scale — the same order of magnitude the perceptual
	// flat score uses. The exact value only shifts bucket boundaries.
	const flatSlope = 0.25
	out := make([]int8, w)
	for k := 0; k < w; k++ {
		// Windows share boundary points so every adjacent pair is covered.
		lo := k * (n - 1) / w
		hi := (k + 1) * (n - 1) / w
		var st segstat.Stats
		for i := lo; i <= hi; i++ {
			st.Add(xs[i], y(i))
		}
		s, ok := st.Slope()
		switch {
		case !ok:
		case s > flatSlope:
			out[k] = 1
		case s < -flatSlope:
			out[k] = -1
		}
	}
	return out
}
