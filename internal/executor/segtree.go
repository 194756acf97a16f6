package executor

import "math"

// treeRun is the SegmentTree pattern-aware segmenter of Section 6.2
// (Theorem 6.3). It builds a balanced binary tree over atomic candidate
// gaps and computes, bottom-up at every node, the best segmentation of the
// node's full range for every contiguous interval [a..b] of chain units.
//
// A parent combines child entries two ways for each split unit c:
//
//   - disjoint:  left[a..c] + right[c+1..b] — the break sits exactly at the
//     child boundary; the combined score is the sum of the child scores.
//   - shared:    left[a..c] + right[c..b] — unit c spans the boundary; its
//     two partial visual segments merge via the additivity of summarized
//     statistics (Theorem 5.1) and only unit c is re-scored. This is what
//     lets break points retained in small regions survive into larger ones
//     (the Closure assumption) at non-dyadic positions.
//
// An entry keeps only what a parent reads — its score, its first and last
// unit scores, its first and last interior break — plus a back-pointer to
// the split that produced it, so a combine is O(1) per split and the root's
// break list is rebuilt once, by following back-pointers down the tree
// (appendTreeBreaks). Per node: O(k²) intervals × O(k) splits = O(k³); O(n)
// nodes total gives O(nk³), linear in the number of points. Intervals no
// segmentation of the whole window can use are skipped (treeNode.reaches).
func treeRun(ce *chainEval, t1, t2, lo, hi int) runResult {
	ctx := ce.ctx
	k := t2 - t1 + 1
	// Leaves are at least the minimum segment width wide — the paper's
	// "smallest possible VisualSegment" is a bin of width b, and the bin
	// width doubles as the perceptibility floor.
	stride := ce.opts.Stride
	if s := minSpan(ce, k, lo, hi); s > stride {
		stride = s
	}
	// The stride grid (with the trailing-gap merge folded in: a final gap
	// narrower than the width floor merges into the previous leaf so no
	// leaf violates the floor the other engines honor) is cached on the
	// context keyed by (lo, hi, stride): every same-k alternative of this
	// candidate — and every same-shape candidate after it — reuses the
	// grid and the leaf skeleton it determines instead of rebuilding them.
	cands := ctx.treeGrid.gridMerged(lo, hi, stride)
	if len(cands) < 2 {
		return infeasibleRunCtx(ctx, t1, t2, lo)
	}
	// L leaves make at most 2L−1 nodes; sizing both buffers up front keeps
	// every node and entry in place for the whole run.
	leaves := len(cands) - 1
	kk := k * k
	nodes := grow(&ctx.treeNodes, 2*leaves-1)[:0]
	slab := grow(&ctx.treeSlab, (2*leaves-1)*kk)
	entries := func(id int32) []treeEntry { return slab[int(id)*kk : int(id+1)*kk] }
	level := ctx.treeLevel[:0]
	for i := 0; i < leaves; i++ {
		id := int32(len(nodes))
		level = append(level, id)
		nodes = append(nodes, treeNode{lo: cands[i], hi: cands[i+1], first: i, leaves: 1, left: -1, right: -1})
		newLeaf(ce, t1, k, leaves, &nodes[id], entries(id))
	}
	next := ctx.treeLevelNext[:0]
	for len(level) > 1 {
		next = next[:0]
		for i := 0; i+1 < len(level); i += 2 {
			l, r, id := level[i], level[i+1], int32(len(nodes))
			next = append(next, id)
			nodes = append(nodes, treeNode{lo: nodes[l].lo, hi: nodes[r].hi, first: nodes[l].first,
				leaves: nodes[l].leaves + nodes[r].leaves, left: l, right: r})
			combine(ce, t1, k, leaves, &nodes[l], &nodes[r], &nodes[id], entries(l), entries(r), entries(id))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level, next = next, level
	}
	ctx.treeLevel, ctx.treeLevelNext = level, next
	root := level[0]
	e := &entries(root)[k-1] // units [0..k-1]
	if !e.ok {
		return infeasibleRunCtx(ctx, t1, t2, lo)
	}
	breaks := appendTreeBreaks(ctx.breaksBuf[:0], nodes, slab, k, root, 0, k-1)
	ctx.breaksBuf = breaks
	score := refineBreaks(ce, t1, lo, hi, stride, breaks, e.score)
	ctx.rangesOut = appendBreaksToRanges(ctx.rangesOut[:0], lo, hi, breaks)
	return runResult{score: score, ranges: ctx.rangesOut}
}

// refineBreaks polishes the SegmentTree's leaf-aligned break points on the
// fine candidate grid: each break slides within one leaf width to the
// position maximizing its two adjacent unit scores, respecting the width
// floor. The search space stays a subset of the DP's, so the result never
// exceeds the optimum; it recovers most of the resolution lost to
// leaf-aligned breaks at negligible cost (O(k · leafWidth) unit scores).
func refineBreaks(ce *chainEval, t1, lo, hi, leafWidth int, breaks []int, cur float64) float64 {
	if len(breaks) == 0 {
		return cur
	}
	span := minSpan(ce, len(breaks)+1, lo, hi)
	fine := ce.opts.Stride
	for pass := 0; pass < 2; pass++ {
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
			wL := ce.chain.Units[t1+i].Weight
			wR := ce.chain.Units[t1+i+1].Weight
			origS := wL*ce.unitScore(t1+i, left, breaks[i]) + wR*ce.unitScore(t1+i+1, breaks[i], right)
			bestB, bestS := breaks[i], origS
			loB, hiB := breaks[i]-leafWidth, breaks[i]+leafWidth
			for b := loB; b <= hiB; b += fine {
				if b == breaks[i] || b-left < span || right-b < span {
					continue
				}
				s := wL*ce.unitScore(t1+i, left, b) + wR*ce.unitScore(t1+i+1, b, right)
				if s > bestS {
					bestB, bestS = b, s
				}
			}
			if bestB != breaks[i] {
				cur += bestS - origS
				breaks[i] = bestB
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// treeEntry is the best segmentation of a node's full range by one
// contiguous unit interval [a..b]. It holds no pointers, so the slab of
// every entry of a treeRun is never scanned by the garbage collector and
// is written without write barriers.
type treeEntry struct {
	score float64
	// firstScore and lastScore are the unweighted scores of the interval's
	// first and last unit, needed to re-score a shared unit on merge.
	firstScore, lastScore float64
	// firstBreak and lastBreak are the first and last interior unit
	// boundaries (point indices); meaningful only when b > a.
	firstBreak, lastBreak int32
	// split is the unit the winning combination split at, and shared
	// whether that unit spans the child boundary: the back-pointer
	// appendTreeBreaks follows. Unused in leaf entries.
	split  int32
	shared bool
	// ok is false when the interval is infeasible over the node.
	ok bool
}

// treeNode is one node of the tree. Node i's entries are the run's
// slab[i·k² : (i+1)·k²], entry [a..b] at offset a·k+b.
type treeNode struct {
	lo, hi        int   // inclusive point range
	first, leaves int   // first atomic gap underneath, and their number
	left, right   int32 // child node ids; −1 for a leaf
}

// reaches reports whether entry [a..b] of n can take part in a segmentation
// of all total gaps by units [0..k-1]: every unit covers at least one gap,
// so units before a need a gap each left of the node and units after b one
// each right of it. A parent entry that reaches only ever combines child
// entries that reach (a child that does not is paired with an infeasible
// sibling), so skipping the others changes no entry the root depends on.
func (n *treeNode) reaches(a, b, k, total int) bool {
	return b-a+1 <= n.leaves && a <= n.first && k-1-b <= total-n.first-n.leaves
}

// newLeaf scores every single unit over one atomic gap into the leaf's
// entries; a leaf holds no multi-unit interval.
func newLeaf(ce *chainEval, t1, k, total int, n *treeNode, es []treeEntry) {
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			es[a*k+b].ok = false
		}
		if !n.reaches(a, a, k, total) {
			continue
		}
		sc := ce.unitScore(t1+a, n.lo, n.hi)
		w := ce.chain.Units[t1+a].Weight
		es[a*k+a] = treeEntry{score: w * sc, firstScore: sc, lastScore: sc, ok: true}
	}
}

// combine fills the entries pe of p, the parent of l and r, from theirs.
func combine(ce *chainEval, t1, k, total int, l, r, p *treeNode, le, re, pe []treeEntry) {
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			pe[a*k+b].ok = false
			if !p.reaches(a, b, k, total) {
				continue
			}
			// Select the best split first (strict >, so the first best split
			// in c order wins).
			bestScore := math.Inf(-1)
			bestC := -1
			bestShared := false
			var bestMerged float64
			found := false
			for c := a; c <= b; c++ {
				// Disjoint split: break at the child boundary.
				if c < b {
					x, y := &le[a*k+c], &re[(c+1)*k+b]
					if x.ok && y.ok {
						if s := x.score + y.score; !found || s > bestScore {
							bestScore, bestC, bestShared, found = s, c, false, true
						}
					}
				}
				// Shared unit c: merge its partial segments across the
				// boundary and re-score only unit c.
				x, y := &le[a*k+c], &re[c*k+b]
				if !x.ok || !y.ok {
					continue
				}
				w := ce.chain.Units[t1+c].Weight
				mergedStart := l.lo
				if c > a {
					mergedStart = int(x.lastBreak)
				}
				mergedEnd := r.hi
				if b > c {
					mergedEnd = int(y.firstBreak)
				}
				mergedScore := ce.unitScore(t1+c, mergedStart, mergedEnd)
				s := x.score - w*x.lastScore + y.score - w*y.firstScore + w*mergedScore
				if !found || s > bestScore {
					bestScore, bestC, bestShared, bestMerged, found = s, c, true, mergedScore, true
				}
			}
			if !found || !(bestScore > -math.MaxFloat64) {
				continue
			}
			c := bestC
			if bestShared {
				// Breaks: left[a..c]'s, then right[c..b]'s.
				x, y := &le[a*k+c], &re[c*k+b]
				e := treeEntry{score: bestScore, firstScore: x.firstScore, lastScore: y.lastScore,
					firstBreak: x.firstBreak, lastBreak: y.lastBreak, split: int32(c), shared: true, ok: true}
				if a == c {
					e.firstScore, e.firstBreak = bestMerged, y.firstBreak
				}
				if b == c {
					e.lastScore, e.lastBreak = bestMerged, x.lastBreak
				}
				pe[a*k+b] = e
			} else {
				// Breaks: left[a..c]'s, the child boundary, right[c+1..b]'s.
				x, y := &le[a*k+c], &re[(c+1)*k+b]
				e := treeEntry{score: bestScore, firstScore: x.firstScore, lastScore: y.lastScore,
					firstBreak: x.firstBreak, lastBreak: y.lastBreak, split: int32(c), ok: true}
				if a == c {
					e.firstBreak = int32(l.hi)
				}
				if c+1 == b {
					e.lastBreak = int32(l.hi)
				}
				pe[a*k+b] = e
			}
		}
	}
}

// appendTreeBreaks appends the interior breaks of node id's entry [a..b]
// in order, following the split back-pointers: the left child's part
// recursively, then the child boundary for a disjoint split, then the
// right child's part (iteratively). A single-unit interval has none.
func appendTreeBreaks(breaks []int, nodes []treeNode, slab []treeEntry, k int, id int32, a, b int) []int {
	for a < b {
		n := &nodes[id]
		e := &slab[int(id)*k*k+a*k+b]
		c := int(e.split)
		breaks = appendTreeBreaks(breaks, nodes, slab, k, n.left, a, c)
		if e.shared {
			a = c
		} else {
			breaks = append(breaks, nodes[n.left].hi)
			a = c + 1
		}
		id = n.right
	}
	return breaks
}

// breaksToRanges converts interior break positions into per-unit inclusive
// ranges (adjacent units share the break point).
func breaksToRanges(lo, hi int, breaks []int) [][2]int {
	return appendBreaksToRanges(make([][2]int, 0, len(breaks)+1), lo, hi, breaks)
}

// appendBreaksToRanges is breaksToRanges into a reusable buffer.
func appendBreaksToRanges(ranges [][2]int, lo, hi int, breaks []int) [][2]int {
	start := lo
	for _, b := range breaks {
		ranges = append(ranges, [2]int{start, b})
		start = b
	}
	return append(ranges, [2]int{start, hi})
}
