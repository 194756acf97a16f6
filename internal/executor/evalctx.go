package executor

import (
	"math"
	"math/bits"
	"sync"
)

// evalCtx is the per-worker, reusable evaluation state of the scoring
// kernel. Every buffer the SEGMENT → SCORE inner loop used to allocate per
// candidate — the chainEval and its compiled units, the DP's best/from
// tables and candidate grid, the SegmentTree's node list and entry slab, and
// the quantifier/sketch scratch — lives here and is resized, never
// reallocated, so steady-state scoring performs near-zero heap allocations
// (pinned by TestSteadyStateAllocs).
//
// An evalCtx is owned by exactly one pipeline worker at a time (a
// package-wide sync.Pool recycles them across runs) and is not safe for
// concurrent use.
// Nested sub-query evaluation borrows a child context so the outer solver's
// scratch is never clobbered mid-run.
type evalCtx struct {
	// ce is the single chainEval reused across (viz, alternative) pairs.
	ce chainEval
	// units backs ce.units, truncated and refilled per compile.
	units []compiledUnit

	// DP scratch (dpRunStride): flat (k+1)×m tables.
	dpBest []float64
	dpFrom []int

	// memo is the per-candidate unit-score memo keyed by
	// (unit signature, inclusive range): one flat epoch-stamped hash table,
	// bump-reset per candidate (evalVizShared), shared by every solver
	// through unitScore. Alternatives produced by cross-concatenation share
	// almost all of their units, so each (signature, range) pair is scored
	// once per candidate no matter how many alternatives touch it.
	memo scoreMemo

	// fitMemo caches the least-squares fit per range — slope and its atan —
	// for the current candidate, so different patterns over one range (u
	// versus d in cross-concatenated alternatives) share one fit and one
	// atan. Reset with memo; consulted only under shared evaluation.
	fitMemo fitMemo

	// treeGrid and dpGrid cache the break-point candidate grids keyed by
	// (lo, hi, stride). The grids are pure arithmetic in the key, so one
	// cached grid serves every same-k alternative of a candidate and every
	// same-shape candidate after it. The tree grid additionally carries the
	// SegmentTree's trailing-gap merge.
	treeGrid, dpGrid gridCache

	// rangesOut is the runResult out-buffer shared by the DP, the
	// SegmentTree and infeasibleRunCtx; solveChain copies it before the
	// next solver call.
	rangesOut [][2]int
	// chainRanges is solveChain's full-chain assignment; evalViz copies the
	// winning alternative's ranges out of it.
	chainRanges [][2]int
	// slopes is scoreRanges' fitted-slope scratch.
	slopes []float64

	// Quantifier scratch: per-pair scores, detected runs, per-run scores.
	pairScores []float64
	runsBuf    [][2]int
	runScores  []float64

	// normY is the scratch Viz.memoize writes a chart's normalized y to.
	normY []float64

	// Sound-pruning-bound scratch (soundUpperBound): per-unit pin indices
	// and pin-validity flags for the alternative under inspection, plus the
	// per-candidate bound caches — the slope interval per width floor, the
	// unit upper bound per (signature, width floor), and the chain bound per
	// distinct pin-free chain-bound signature. All reset per candidate by
	// truncation; sizes are bounded by the plan's signature counts.
	ubPinS, ubPinE []int
	ubPinBad       []bool
	ubSpanKeys     []int
	ubSpanLo       []float64
	ubSpanHi       []float64
	ubUnitKeys     []uint64
	ubUnitHi       []float64
	ubChainUB      []float64
	ubChainSet     []bool

	// Tiling-bound state (tilingUpperBound): tile is the fitted angle of
	// every range of tileViz, packed by end point — the table tileViz keeps
	// (loadRangeAngles) or tileAngle, the scratch fillRangeAngles writes —
	// and tileRows are the DP's two rows. batchRun.score loads the angles
	// at most once per call, for the candidate it is scoring. The angles
	// are a function of tileViz alone (a Viz never changes after group), so
	// the exact path may read them for that viz too (rangeAngles).
	tile, tileAngle []float64
	tileViz         *Viz
	tileRows        []float64

	// SegmentTree scratch, overwritten by every treeRun: the flat node
	// list, the entry slab (k² pointer-free entries per node), the node ids
	// of the level being combined and the next, and the root's breaks.
	treeNodes     []treeNode
	treeSlab      []treeEntry
	treeLevel     []int32
	treeLevelNext []int32
	breaksBuf     []int

	// child serves nested sub-query evaluation (one level per depth).
	child *evalCtx
}

func newEvalCtx() *evalCtx { return &evalCtx{} }

// childCtx returns the context nested sub-query evaluation runs in,
// creating it on first use.
func (ec *evalCtx) childCtx() *evalCtx {
	if ec.child == nil {
		ec.child = newEvalCtx()
	}
	return ec.child
}

// ctxPool recycles evaluation contexts across runs of every plan.
var ctxPool = sync.Pool{New: func() any { return newEvalCtx() }}

func getEvalCtx() *evalCtx { return ctxPool.Get().(*evalCtx) }

func putEvalCtx(ec *evalCtx) {
	// Drop the viz/options/query references so a pooled context does not
	// pin a finished run's data; the scratch buffers are the whole point
	// and stay.
	for c := ec; c != nil; c = c.child {
		c.ce = chainEval{}
		for i := range c.units {
			c.units[i] = compiledUnit{}
		}
		c.units = c.units[:0]
		c.tile, c.tileViz = nil, nil
	}
	ctxPool.Put(ec)
}

// grow resizes *buf to n elements without shrinking its capacity. The
// elements are not cleared: callers overwrite what they read.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// scoreMemo is a flat open-addressing hash table mapping a packed
// (unit signature, range) key to a unit score. Entries are stamped with an
// epoch; reset bumps the epoch, invalidating every entry in O(1) — the
// steady state allocates nothing (the table grows only while a run's
// candidates are still establishing its working-set size).
//
// Ownership rule: the memo belongs to the worker's current candidate.
// evalVizShared resets it when it takes up a candidate; nothing may read an
// entry written under a previous candidate (the epoch stamp enforces this
// mechanically).
type scoreMemo struct {
	ents  []scoreEnt
	epoch uint32
	live  int
	shift uint
}

// scoreEnt packs one entry into a single cache-line-friendly record (24 B):
// a probe touches one array instead of parallel key/mark/value arrays.
type scoreEnt struct {
	key  uint64
	mark uint32
	val  float64
}

// memoMinSize is the initial table size (a power of two).
const memoMinSize = 1 << 10

func (m *scoreMemo) init(size int) {
	m.ents = make([]scoreEnt, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if m.epoch == 0 {
		m.epoch = 1
	}
	m.live = 0
}

// reset invalidates every entry for the next candidate.
func (m *scoreMemo) reset() {
	m.epoch++
	m.live = 0
	if m.epoch == 0 { // wrapped: stale marks could alias the new epoch
		for i := range m.ents {
			m.ents[i].mark = 0
		}
		m.epoch = 1
	}
}

func memoHash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

// getSlot probes for key: on a hit it returns the value; on a miss it
// returns the empty slot where the key belongs, so putSlot can insert
// without re-probing.
func (m *scoreMemo) getSlot(key uint64) (v float64, slot int, ok bool) {
	if len(m.ents) == 0 {
		m.init(memoMinSize)
	}
	mask := len(m.ents) - 1
	i := int(memoHash(key) >> m.shift)
	for {
		e := &m.ents[i]
		if e.mark != m.epoch {
			return 0, i, false
		}
		if e.key == key {
			return e.val, i, true
		}
		i = (i + 1) & mask
	}
}

// putSlot inserts at the slot getSlot returned for this key (no mutations
// may occur in between); it re-probes only when the table must grow.
func (m *scoreMemo) putSlot(slot int, key uint64, v float64) {
	if m.live >= len(m.ents)-len(m.ents)/4 {
		m.grow()
		mask := len(m.ents) - 1
		slot = int(memoHash(key) >> m.shift)
		for m.ents[slot].mark == m.epoch {
			if m.ents[slot].key == key {
				m.ents[slot].val = v
				return
			}
			slot = (slot + 1) & mask
		}
	}
	m.ents[slot] = scoreEnt{key: key, mark: m.epoch, val: v}
	m.live++
}

func (m *scoreMemo) put(key uint64, v float64) {
	if len(m.ents) == 0 {
		m.init(memoMinSize)
	} else if m.live >= len(m.ents)-len(m.ents)/4 {
		m.grow()
	}
	mask := len(m.ents) - 1
	i := int(memoHash(key) >> m.shift)
	for m.ents[i].mark == m.epoch {
		if m.ents[i].key == key {
			m.ents[i].val = v
			return
		}
		i = (i + 1) & mask
	}
	m.ents[i] = scoreEnt{key: key, mark: m.epoch, val: v}
	m.live++
}

// grow doubles the table, reinserting the current epoch's entries.
func (m *scoreMemo) grow() {
	old := *m
	m.init(len(old.ents) * 2)
	m.epoch = old.epoch
	for i := range old.ents {
		if old.ents[i].mark == old.epoch {
			m.put(old.ents[i].key, old.ents[i].val)
		}
	}
}

// fitMemo caches per-candidate least-squares fits keyed by range: the
// fitted slope and its atan (every Table 5 pattern score is a function of
// that angle). Same epoch-stamped open-addressing scheme as scoreMemo, one
// 32-byte record per entry. A degenerate fit (rangeSlope !ok) stores a NaN
// angle.
type fitMemo struct {
	ents  []fitEnt
	epoch uint32
	live  int
	shift uint
}

type fitEnt struct {
	key   uint64
	mark  uint32
	slope float64
	angle float64
}

func (m *fitMemo) init(size int) {
	m.ents = make([]fitEnt, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if m.epoch == 0 {
		m.epoch = 1
	}
	m.live = 0
}

func (m *fitMemo) reset() {
	m.epoch++
	m.live = 0
	if m.epoch == 0 {
		for i := range m.ents {
			m.ents[i].mark = 0
		}
		m.epoch = 1
	}
}

// fit returns the fitted slope and angle over inclusive range [i, j] of v,
// computing and caching on first sight.
func (m *fitMemo) fit(v *Viz, i, j int) (slope, angle float64, ok bool) {
	key := uint64(i)<<24 | uint64(j)
	if len(m.ents) == 0 {
		m.init(memoMinSize)
	}
	mask := len(m.ents) - 1
	s := int(memoHash(key) >> m.shift)
	for {
		e := &m.ents[s]
		if e.mark != m.epoch {
			break
		}
		if e.key == key {
			return e.slope, e.angle, !math.IsNaN(e.angle)
		}
		s = (s + 1) & mask
	}
	slope, ok = v.rangeSlope(i, j)
	angle = math.NaN()
	if ok {
		angle = math.Atan(slope)
	}
	if m.live >= len(m.ents)-len(m.ents)/4 {
		m.grow()
		mask = len(m.ents) - 1
		s = int(memoHash(key) >> m.shift)
		for m.ents[s].mark == m.epoch {
			if m.ents[s].key == key {
				return slope, angle, ok
			}
			s = (s + 1) & mask
		}
	}
	m.ents[s] = fitEnt{key: key, mark: m.epoch, slope: slope, angle: angle}
	m.live++
	return slope, angle, ok
}

func (m *fitMemo) grow() {
	old := *m
	m.init(len(old.ents) * 2)
	m.epoch = old.epoch
	for i := range old.ents {
		e := &old.ents[i]
		if e.mark == old.epoch {
			m.reinsert(e.key, e.slope, e.angle)
		}
	}
}

func (m *fitMemo) reinsert(key uint64, slope, angle float64) {
	mask := len(m.ents) - 1
	s := int(memoHash(key) >> m.shift)
	for m.ents[s].mark == m.epoch {
		if m.ents[s].key == key {
			return
		}
		s = (s + 1) & mask
	}
	m.ents[s] = fitEnt{key: key, mark: m.epoch, slope: slope, angle: angle}
	m.live++
}

// gridCache memoizes one break-point candidate grid keyed by
// (lo, hi, stride, merged). Grids are viz-independent arithmetic, so a
// cached grid stays valid across alternatives and across candidates until
// the key changes; callers must treat the returned slice as read-only.
type gridCache struct {
	lo, hi, stride int
	merged         bool
	valid          bool
	cands          []int
}

// grid returns the plain candidate grid for the key (the DP's form).
func (g *gridCache) grid(lo, hi, stride int) []int {
	if g.valid && !g.merged && g.lo == lo && g.hi == hi && g.stride == stride {
		return g.cands
	}
	g.cands = appendCandidates(g.cands[:0], lo, hi, stride)
	g.lo, g.hi, g.stride, g.merged, g.valid = lo, hi, stride, false, true
	return g.cands
}

// gridMerged returns the grid with the SegmentTree's trailing-gap merge: a
// final gap narrower than the width floor folds into the previous leaf.
func (g *gridCache) gridMerged(lo, hi, stride int) []int {
	if g.valid && g.merged && g.lo == lo && g.hi == hi && g.stride == stride {
		return g.cands
	}
	g.cands = appendCandidates(g.cands[:0], lo, hi, stride)
	for len(g.cands) >= 3 && hi-g.cands[len(g.cands)-2] < stride {
		g.cands = append(g.cands[:len(g.cands)-2], hi)
	}
	g.lo, g.hi, g.stride, g.merged, g.valid = lo, hi, stride, true, true
	return g.cands
}
