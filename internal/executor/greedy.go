package executor

// greedyRun is the greedy segmentation baseline of Section 9: it starts
// with equal-sized visual segments and repeatedly moves one break to the
// midpoint of an adjacent segment (halving it) whenever that improves the
// overall score, stopping at a local optimum. Fast but easily stuck.
func greedyRun(ce *chainEval, t1, t2, lo, hi int) runResult {
	k := t2 - t1 + 1
	if hi-lo < k {
		return infeasibleRun(t1, t2, lo)
	}
	breaks := make([]int, k-1)
	for i := range breaks {
		breaks[i] = lo + (hi-lo)*(i+1)/k
	}
	scoreOf := func(br []int) float64 {
		total := 0.0
		start := lo
		for t := 0; t < k; t++ {
			end := hi
			if t < k-1 {
				end = br[t]
			}
			total += ce.chain.Units[t1+t].Weight * ce.unitScore(t1+t, start, end)
			start = end
		}
		return total
	}
	span := minSpan(ce, k, lo, hi)
	cur := scoreOf(breaks)
	for iter := 0; iter < 64; iter++ {
		improved := false
		for i := range breaks {
			left := lo
			if i > 0 {
				left = breaks[i-1]
			}
			right := hi
			if i+1 < len(breaks) {
				right = breaks[i+1]
			}
			orig := breaks[i]
			// Shrink the left segment by half, then the right one.
			for _, cand := range []int{(left + orig) / 2, (orig + right) / 2} {
				if cand-left < span || right-cand < span || cand == orig {
					continue
				}
				breaks[i] = cand
				if s := scoreOf(breaks); s > cur {
					cur = s
					improved = true
					orig = cand
				} else {
					breaks[i] = orig
				}
			}
		}
		if !improved {
			break
		}
	}
	return runResult{score: cur, ranges: breaksToRanges(lo, hi, breaks)}
}

// maxExhaustivePoints caps AlgExhaustive's input size: a chart with more
// points fails the search instead of enumerating for hours.
const maxExhaustivePoints = 64

// exhaustiveRun enumerates every possible break placement — the ground
// truth oracle for small inputs. Unlike the search engines it scores each
// complete segmentation with POSITION references resolved, so it is exact
// even for queries the other engines approximate. Exponential; guarded by
// maxExhaustivePoints.
func exhaustiveRun(ce *chainEval, t1, t2, lo, hi int) runResult {
	k := t2 - t1 + 1
	if hi-lo < k {
		return infeasibleRun(t1, t2, lo)
	}
	cands := candidates(lo, hi, ce.opts.Stride)
	span := minSpan(ce, k, lo, hi)
	breaks := make([]int, k-1)
	bestBreaks := make([]int, k-1)
	best := -1e300
	fullChain := t1 == 0 && t2 == len(ce.units)-1

	var rec func(t, minIdx int)
	rec = func(t, minIdx int) {
		if t == k-1 {
			if k > 1 && hi-breaks[k-2] < span {
				return
			}
			var s float64
			ranges := breaksToRanges(lo, hi, breaks)
			if fullChain {
				s = ce.scoreRanges(ranges)
			} else {
				s = 0
				for i, r := range ranges {
					s += ce.chain.Units[t1+i].Weight * ce.unitScore(t1+i, r[0], r[1])
				}
			}
			if s > best {
				best = s
				copy(bestBreaks, breaks)
			}
			return
		}
		for ci := minIdx; ci < len(cands)-(k-1-t); ci++ {
			prev := lo
			if t > 0 {
				prev = breaks[t-1]
			}
			if cands[ci]-prev < span {
				continue
			}
			breaks[t] = cands[ci]
			rec(t+1, ci+1)
		}
	}
	rec(0, 1)
	return runResult{score: best, ranges: breaksToRanges(lo, hi, bestBreaks)}
}
