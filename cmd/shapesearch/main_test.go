package main

import (
	"math"
	"testing"
)

func TestSparkline(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		ys    []float64
		width int
		want  string
	}{
		{"finite", []float64{0, 1, 2, 3, 4, 5, 6, 7}, 60, "▁▂▃▄▅▆▇█"},
		{"constant", []float64{3, 3, 3}, 60, "▁▁▁"},
		{"all non-finite", []float64{nan, inf, -inf}, 60, "···"},
		{"mixed", []float64{0, inf, 7, nan, -inf, 3.5}, 60, "▁·█··▄"},
		// Averaging a bucket with a non-finite sample yields a gap.
		{"downsampled", []float64{0, 1, inf, 2, 7, 7}, 3, "▁·█"},
		// Finite values whose range overflows a float64.
		{"overflowing span", []float64{-math.MaxFloat64, math.MaxFloat64}, 60, "▁▁"},
		{"empty", nil, 60, ""},
	}
	for _, c := range cases {
		if got := sparkline(c.ys, c.width); got != c.want {
			t.Errorf("%s: sparkline(%v, %d) = %q, want %q", c.name, c.ys, c.width, got, c.want)
		}
	}
}
