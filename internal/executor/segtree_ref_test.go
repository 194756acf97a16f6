package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shapesearch/internal/regexlang"
)

// refTreeRun is the SegmentTree of Section 6.2 in its plainest form: every
// node and entry is a fresh heap object, and each entry carries its full
// interior break list, copied from its children on every combine. It is the
// oracle for treeRun, whose flat, pointer-free entries rebuild the break
// list from back-pointers instead; the two must agree bit for bit.
func refTreeRun(ce *chainEval, t1, t2, lo, hi int) runResult {
	k := t2 - t1 + 1
	stride := ce.opts.Stride
	if s := minSpan(ce, k, lo, hi); s > stride {
		stride = s
	}
	// The stride grid with the trailing-gap merge: a final gap narrower than
	// the width floor folds into the previous leaf.
	cands := appendCandidates(nil, lo, hi, stride)
	for len(cands) >= 3 && hi-cands[len(cands)-2] < stride {
		cands = append(cands[:len(cands)-2], hi)
	}
	if len(cands) < 2 {
		return infeasibleRun(t1, t2, lo)
	}
	var nodes []*refTreeNode
	for i := 0; i+1 < len(cands); i++ {
		nodes = append(nodes, refNewLeaf(ce, t1, k, cands[i], cands[i+1]))
	}
	for len(nodes) > 1 {
		var next []*refTreeNode
		for i := 0; i+1 < len(nodes); i += 2 {
			next = append(next, refCombine(ce, t1, k, nodes[i], nodes[i+1]))
		}
		if len(nodes)%2 == 1 {
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	e := nodes[0].entry(0, k-1)
	if e == nil {
		return infeasibleRun(t1, t2, lo)
	}
	breaks := append([]int(nil), e.breaks...)
	score := refineBreaks(ce, t1, lo, hi, stride, breaks, e.score)
	return runResult{score: score, ranges: breaksToRanges(lo, hi, breaks)}
}

// refTreeEntry is the best segmentation of a node's full range by one
// contiguous unit interval.
type refTreeEntry struct {
	score float64
	// breaks are the interior unit boundaries (point indices), one fewer
	// than the interval's unit count.
	breaks []int
	// firstScore and lastScore are the unweighted scores of the interval's
	// first and last unit, needed to re-score a shared unit on merge.
	firstScore, lastScore float64
}

type refTreeNode struct {
	lo, hi int // inclusive point range
	leaves int // number of atomic gaps underneath
	k      int
	// entries[a*k+b] is the best segmentation for units [a..b]; nil if
	// infeasible or not applicable.
	entries []*refTreeEntry
}

func (n *refTreeNode) entry(a, b int) *refTreeEntry { return n.entries[a*n.k+b] }

// refNewLeaf scores every single unit over one atomic gap.
func refNewLeaf(ce *chainEval, t1, k, lo, hi int) *refTreeNode {
	n := &refTreeNode{lo: lo, hi: hi, leaves: 1, k: k, entries: make([]*refTreeEntry, k*k)}
	for a := 0; a < k; a++ {
		sc := ce.unitScore(t1+a, lo, hi)
		w := ce.chain.Units[t1+a].Weight
		n.entries[a*k+a] = &refTreeEntry{score: w * sc, firstScore: sc, lastScore: sc}
	}
	return n
}

// refCombine builds the parent of two adjacent nodes: for every unit
// interval [a..b] it tries each split unit c disjointly (break at the child
// boundary) and shared (unit c spans the boundary and is re-scored over its
// merged range), keeping the first best by strict >.
func refCombine(ce *chainEval, t1, k int, l, r *refTreeNode) *refTreeNode {
	p := &refTreeNode{lo: l.lo, hi: r.hi, leaves: l.leaves + r.leaves, k: k, entries: make([]*refTreeEntry, k*k)}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			if b-a+1 > p.leaves {
				continue
			}
			bestScore := math.Inf(-1)
			bestC := -1
			bestShared := false
			var bestMerged float64
			found := false
			for c := a; c <= b; c++ {
				if c < b {
					le, re := l.entry(a, c), r.entry(c+1, b)
					if le != nil && re != nil {
						if s := le.score + re.score; !found || s > bestScore {
							bestScore, bestC, bestShared, found = s, c, false, true
						}
					}
				}
				le, re := l.entry(a, c), r.entry(c, b)
				if le == nil || re == nil {
					continue
				}
				w := ce.chain.Units[t1+c].Weight
				mergedStart := l.lo
				if len(le.breaks) > 0 {
					mergedStart = le.breaks[len(le.breaks)-1]
				}
				mergedEnd := r.hi
				if len(re.breaks) > 0 {
					mergedEnd = re.breaks[0]
				}
				mergedScore := ce.unitScore(t1+c, mergedStart, mergedEnd)
				s := le.score - w*le.lastScore + re.score - w*re.firstScore + w*mergedScore
				if !found || s > bestScore {
					bestScore, bestC, bestShared, bestMerged, found = s, c, true, mergedScore, true
				}
			}
			if !found || !(bestScore > -math.MaxFloat64) {
				continue
			}
			var best *refTreeEntry
			if bestShared {
				le, re := l.entry(a, bestC), r.entry(bestC, b)
				breaks := append(append([]int(nil), le.breaks...), re.breaks...)
				first := le.firstScore
				if a == bestC {
					first = bestMerged
				}
				last := re.lastScore
				if b == bestC {
					last = bestMerged
				}
				best = &refTreeEntry{score: bestScore, breaks: breaks, firstScore: first, lastScore: last}
			} else {
				le, re := l.entry(a, bestC), r.entry(bestC+1, b)
				breaks := append(append(append([]int(nil), le.breaks...), l.hi), re.breaks...)
				best = &refTreeEntry{score: bestScore, breaks: breaks, firstScore: le.firstScore, lastScore: re.lastScore}
			}
			p.entries[a*k+b] = best
		}
	}
	return p
}

// segTreeRefQueries span chain lengths 1–7 and the unit kinds a fuzzy run
// can contain: repeated units, OR alternatives and optional units (several
// chains per query), pins that split a chain into fuzzy runs, quantifiers,
// nested sub-queries, an exact slope and a POSITION reference.
var segTreeRefQueries = []string{
	"u",
	"u ; d",
	"u ; u ; d",
	"u ; d ; u ; d",
	"(u | d) ; f ; (d | u)",
	"u? ; d ; u? ; d",
	"u ; d ; f ; u ; d",
	"u ; d ; u ; d ; u ; d",
	"u ; f ; d ; [p=45] ; u ; d ; f",
	"u ; [p=down, x.s=20, x.e=60] ; u ; d",
	"[p=up, m={2,}] ; d ; u",
	"[p=[[p=up][p=down]]] ; u ; d",
	"u ; [p=up][p=$1, m=<] ; d",
}

// TestSegmentTreeMatchesReference: treeRun must reproduce the reference
// SegmentTree exactly — score bits and every unit range, through
// solveChain — across series lengths 2–130 (fewer points than units, odd
// leaf counts whose last node is carried up a level unmerged), strides 1–3,
// width floors from none to 30% of the chart, and chains of 1–7 units.
// Every third series is grouped with skip windows, so unit scores over
// skipped points take the worst-score path. The production side reuses one
// context throughout, so entries left in its scratch by a previous run
// with other sizes must never leak into the next.
func TestSegmentTreeMatchesReference(t *testing.T) {
	var plans []*Plan
	for _, stride := range []int{1, 2, 3} {
		for _, frac := range []float64{1e-9, 0.05, 0.3} {
			for _, q := range segTreeRefQueries {
				opts := seqOpts()
				opts.Algorithm = AlgSegmentTree
				opts.Stride = stride
				opts.MinSegmentFrac = frac
				plan, err := Compile(regexlang.MustParse(q), opts)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	ec := newEvalCtx()
	cases := 0
	for n := 2; n <= 130; n++ {
		s := randomSeries(rng, n)
		cfg := groupConfig{zNormalize: true}
		if n%3 == 0 {
			third := float64(n) / 3
			cfg.keepRanges = [][2]float64{{0, third}, {1.6 * third, float64(n)}}
		}
		v := group(s, cfg)
		if v == nil {
			continue
		}
		for j, plan := range plans {
			// Short series, where the edge cases live, meet every plan;
			// longer ones a rotating third of them.
			if n > 40 && (j+n)%3 != 0 {
				continue
			}
			cases += checkTreeAgainstRef(t, ec, v, plan)
		}
	}
	if cases == 0 {
		t.Fatal("no cases ran")
	}
}

// checkTreeAgainstRef solves every alternative chain of the plan over v
// with both SegmentTrees and fails on the first difference. The production
// side runs as the pipeline does — in the reused context, with the plan's
// shared-evaluation memo whenever it is usable — and the reference in a
// fresh context with plain, unmemoized unit scores.
func checkTreeAgainstRef(t *testing.T, ec *evalCtx, v *Viz, plan *Plan) int {
	t.Helper()
	meta := plan.opts.chainMeta
	memoOK := meta.memoUsable(v.N())
	if memoOK {
		ec.memo.reset()
		ec.fitMemo.reset()
	}
	for ai, alt := range plan.norm.Alternatives {
		label := fmt.Sprintf("n=%d stride=%d frac=%g %q alt %d",
			v.N(), plan.opts.Stride, plan.opts.MinSegmentFrac, plan.Fingerprint(), ai)
		ce := ec.compileAlt(v, alt, plan.opts, &meta.alts[ai])
		if !memoOK {
			ce.sigs = nil
		}
		got := solveChain(ce, treeRun)
		gotScore, gotRanges := got.score, append([][2]int(nil), got.ranges...)

		ref := compileChain(v, alt, plan.opts)
		want := solveChain(ref, refTreeRun)
		if math.Float64bits(gotScore) != math.Float64bits(want.score) {
			t.Fatalf("%s: score %v, reference %v", label, gotScore, want.score)
		}
		if len(gotRanges) != len(want.ranges) {
			t.Fatalf("%s: %d ranges, reference %d", label, len(gotRanges), len(want.ranges))
		}
		for i := range gotRanges {
			if gotRanges[i] != want.ranges[i] {
				t.Fatalf("%s: range %d is %v, reference %v", label, i, gotRanges[i], want.ranges[i])
			}
		}
	}
	return len(plan.norm.Alternatives)
}
