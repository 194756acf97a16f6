package executor

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"shapesearch/internal/shapeindex"
	"shapesearch/internal/topk"
)

// The SEGMENT → SCORE pipeline of Section 6 runs in exactly two drivers,
// both over a batch of plans — a single query is a batch of one:
//
//   - scan, the flat bound-first scan: every candidate is bounded, the
//     candidates score in descending-bound order, and a candidate is pruned
//     for a query when its sound upper bound trails that query's live top-k
//     floor;
//   - traverse, the corpus shape-index traversal (see indexed.go): subtrees
//     whose envelope bound trails the floor are skipped outright, and each
//     surviving leaf's members are bounded and scored exactly as scan does.
//
// Both drivers share everything else: the per-candidate step (bound, then
// score), the slot a (candidate, query) outcome is recorded in, the
// deferred exact verification, and the top-k merge.
//
// Lossless pruning: a candidate is pruned only when a provable upper bound
// on its score trails the live threshold, and even then it is recorded,
// not discarded. The bound comes in two tiers (prune.go): the cheap
// per-unit bound, recorded for every candidate up front and setting the
// scan order, and — only when that reaches the floor, for a bare query on
// a short chart — the tiling bound, computed in the per-candidate step and
// recorded in place of the cheap one when it prunes. After the main pass,
// any pruned slot whose bound reaches its query's final top-k floor is
// exactly re-scored before results are selected. Each query's top-k is
// therefore identical — scores and ranking — to its unpruned scan: a
// candidate absent from it either scored below the floor, or carried a
// sound bound (hence an exact score) below the floor. Verification
// normally re-scores nothing (the floor comes only from exact scores and
// only rises); it exists so that any future bound regression degrades to
// wasted work, never to a wrong answer.
//
// Batches: each query keeps its own top-k heap, floor, bounds and
// verification, so a candidate is skipped only for the queries whose floor
// dominates it. What the batch shares is per-candidate work: signature and
// bound-group ids are batch-global (NewMultiPlan), so one bound-cache reset
// and one score/fit-memo reset per candidate serve every query.
//
// Determinism: workers fill slots tagged with the candidate's corpus
// position, and each top-k is selected by (score desc, position asc), so
// results are identical under any worker interleaving, pruned, indexed or
// not.

// sharedTopK is the mutex-guarded heap every pipeline worker feeds for one
// query; its floor (the current k-th best score) is the live pruning
// threshold. The floor is additionally published as an atomic float64 bit
// pattern, updated under the lock in add and read lock-free in the
// per-candidate hot path — a monotone, possibly slightly stale threshold
// only affects how much is pruned, never what the final top-k is (pruned
// candidates are verified against the exact final floor).
type sharedTopK struct {
	mu        sync.Mutex
	heap      *topk.Heap[float64]
	floorBits atomic.Uint64
}

func newSharedTopK(k int) *sharedTopK {
	s := &sharedTopK{heap: topk.New[float64](k)}
	// −Inf means "no floor yet": it never raises a pruning threshold.
	s.floorBits.Store(math.Float64bits(math.Inf(-1)))
	return s
}

func (s *sharedTopK) add(score float64) {
	s.mu.Lock()
	s.heap.Add(score, score)
	if f, ok := s.heap.Floor(); ok {
		s.floorBits.Store(math.Float64bits(f))
	}
	s.mu.Unlock()
}

// fastFloor returns the last published floor without locking (−Inf until
// the heap fills). The floor only rises, so a stale read is merely a looser
// threshold.
func (s *sharedTopK) fastFloor() float64 {
	return math.Float64frombits(s.floorBits.Load())
}

func (s *sharedTopK) floor() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.Floor()
}

// slot is one (candidate, query) pipeline outcome. A driver keeps one slot
// per query for every candidate it bounds or scores, the batch's queries
// consecutive, so a candidate's outcomes are one subslice. Evaluated slots
// carry their score and winning ranges; the Result (and its BreakXs) is
// built only for the final top-k. Pruned slots are never discarded — they
// carry their viz and sound upper bound so deferred verification can
// exactly re-score any that the final floor fails to dominate.
type slot struct {
	v      *Viz
	ub     float64
	score  float64
	ranges [][2]int
	// id is the candidate's corpus position: the ranking tie-break.
	id     int32
	ok     bool
	pruned bool
}

// batchRun is the state one driver call shares across its workers: the
// batch's plans, one pooled evalCtx per worker (buffers survive across
// runs, so steady-state scoring allocates nothing), one top-k heap per
// query, the exact-evaluation count, and the first error.
type batchRun struct {
	plans  []*Plan
	ecs    []*evalCtx
	heaps  []*sharedTopK
	scored atomic.Int64

	errMu    sync.Mutex
	firstErr error
	abort    atomic.Bool
}

// newBatchRun sets up a run of plans on min(Parallelism, n) workers, at
// least one; release returns the contexts to the pool.
func newBatchRun(plans []*Plan, n int) *batchRun {
	workers := plans[0].opts.Parallelism
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	r := &batchRun{plans: plans, ecs: make([]*evalCtx, workers), heaps: make([]*sharedTopK, len(plans))}
	for i := range r.ecs {
		r.ecs[i] = getEvalCtx()
	}
	for q, p := range plans {
		r.heaps[q] = newSharedTopK(p.opts.K)
	}
	return r
}

func (r *batchRun) release() {
	for _, ec := range r.ecs {
		putEvalCtx(ec)
	}
}

func (r *batchRun) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.abort.Store(true)
}

// bound records every query's sound upper bound on v in s, one pruned slot
// per query, and returns the largest: the candidate's scan-order key (a
// candidate strong for any query must score early for that query's floor).
// One cache reset serves the whole batch, so a unit bound shared by several
// queries is derived once per candidate; at one query this is exactly
// resetBoundCaches + soundUpperBound.
func (r *batchRun) bound(ec *evalCtx, v *Viz, id int32, s []slot) float64 {
	ec.resetBoundCaches(r.plans[0].opts.chainMeta)
	best := math.Inf(-1)
	for q, p := range r.plans {
		ub := soundUpperBound(ec, v, p.norm, p.opts)
		s[q] = slot{v: v, ub: ub, id: id, pruned: true}
		if ub > best {
			best = ub
		}
	}
	return best
}

// score evaluates v for every query whose live floor its recorded bound
// reaches (every query when pruning is off), raising that query's floor.
// The first query whose tiling tier or exact evaluation needs v's range
// angles counts the run against v (countAngleRun), so a chart searched
// again keeps its table. Where the tiling bound applies it gets the last
// word before the exact evaluation: v's range angles are loaded by the
// first query that needs them — v's kept table, else a scratch fill
// (loadRangeAngles) that the exact path then reads too — and serve the
// batch's other queries for v only, and a query it prunes records it in
// the slot, below the cheap bound it tightens. The score/fit memo reset is
// consumed by the first query actually evaluated and the memos then stay
// live across the remaining queries, so every (signature, range) score and
// range fit is computed once per candidate for the whole batch; a query
// that prunes the candidate keeps its bound-carrying slot and must not
// consume the reset (the memos would then carry the previous candidate's
// entries). Evaluation itself cannot fail; score returns false only after
// recording that v exceeds the exhaustive engine's size limit.
func (r *batchRun) score(ec *evalCtx, v *Viz, id int32, s []slot) bool {
	o0 := r.plans[0].opts
	if o0.Algorithm == AlgExhaustive && v.N() > o0.MaxExhaustivePoints {
		r.fail(fmt.Errorf("executor: exhaustive search limited to %d points, series %q has %d",
			o0.MaxExhaustivePoints, v.Series.Z, v.N()))
		return false
	}
	prune := r.plans[0].prune
	resetMemo := true
	counted := false // this run has counted against v's range angles
	tiled := false   // ec's tiling state holds v's range angles
	for q, p := range r.plans {
		threshold := math.Inf(-1) // no floor yet, or no pruning
		if prune {
			threshold = r.heaps[q].fastFloor() + p.opts.pruneThresholdBias
			if s[q].ub < threshold {
				continue // stays recorded as pruned, with its bound
			}
		}
		if !counted && anglesApply(v, p.opts) {
			v.countAngleRun()
			counted = true
		}
		if !math.IsInf(threshold, -1) && tilingApplies(v, p.opts) {
			if !tiled {
				ec.loadRangeAngles(v)
				tiled = true
			}
			if tb := tilingUpperBound(ec, v, p.norm, p.opts); tb < threshold {
				s[q].ub = tb // tighter than the cheap bound
				continue
			}
		}
		sc, ranges := evalVizShared(ec, v, p.norm, p.opts, p.solver, resetMemo)
		resetMemo = false
		if prune {
			// Without pruning nothing reads the floor, so skip the lock.
			r.heaps[q].add(sc)
		}
		r.scored.Add(1)
		s[q] = slot{v: v, score: sc, ranges: ranges, id: id, ok: true}
	}
	return true
}

// finish ends a driver's main pass (err is its pool's error): it reports
// the recorded error or the context's, runs deferred verification when
// pruning, and selects every query's top-k from slots.
func (r *batchRun) finish(ctx context.Context, slots []slot, err error) ([][]Result, error) {
	if r.firstErr != nil {
		return nil, r.firstErr
	}
	if err != nil {
		return nil, err
	}
	if r.plans[0].prune {
		if err := r.verify(ctx, slots); err != nil {
			return nil, err
		}
	}
	out := make([][]Result, len(r.plans))
	for q, p := range r.plans {
		out[q] = topK(slots, q, len(r.plans), p.opts.K)
	}
	return out, nil
}

// verify is the deferred exact-verification stage: every pruned slot whose
// sound upper bound is not strictly dominated by its query's final top-k
// floor (the heap floor after the main pass; while fewer than k candidates
// scored, every pruned slot qualifies) is re-scored exactly on the worker
// pool, in place. Rescoring can only add results at or above the floor, so
// one pass suffices: slots it leaves pruned carry a bound — and therefore
// an exact score — provably below the floor.
func (r *batchRun) verify(ctx context.Context, slots []slot) error {
	Q := len(r.plans)
	floors := make([]float64, Q)
	for q, h := range r.heaps {
		f, full := h.floor()
		if !full {
			f = math.Inf(-1)
		}
		floors[q] = f
	}
	var rescue []int
	for i := 0; i < len(slots); i += Q {
		for q := range floors {
			if s := &slots[i+q]; s.pruned && s.ub >= floors[q]-boundEps {
				rescue = append(rescue, i+q)
			}
		}
	}
	if len(rescue) == 0 {
		return nil
	}
	return forEachIndex(ctx, len(r.ecs), len(rescue), func(worker, j int) {
		s := &slots[rescue[j]]
		p := r.plans[rescue[j]%Q]
		sc, ranges := evalViz(r.ecs[worker], s.v, p.norm, p.opts, p.solver)
		r.scored.Add(1)
		*s = slot{v: s.v, score: sc, ranges: ranges, id: s.id, ok: true}
	})
}

// topK selects query q's top-k from a batch's slots (Q per candidate) by
// (score descending, corpus position ascending) — the deterministic tie
// rule every engine shares, so pruned, parallel, indexed and sequential
// runs rank identically — and builds the Results for those k only.
func topK(slots []slot, q, Q, k int) []Result {
	idx := make([]int, 0, len(slots)/Q)
	for j := q; j < len(slots); j += Q {
		if slots[j].ok {
			idx = append(idx, j)
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		sa, sb := &slots[a], &slots[b]
		if c := cmp.Compare(sb.score, sa.score); c != 0 {
			return c
		}
		return cmp.Compare(sa.id, sb.id)
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]Result, len(idx))
	for i, j := range idx {
		out[i] = makeResult(slots[j].v, slots[j].score, slots[j].ranges)
	}
	return out
}

// first unwraps the results of a batch of one.
func first(res [][]Result, err error) ([]Result, error) {
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// scan is the flat driver: it ranks n candidates (viz(i) groups or fetches
// candidate i; nil skips it) for every plan of a batch in one pass.
//
// With pruning on, every candidate is bounded up front (the bounds must be
// recorded anyway for deferred verification), and the scoring pass visits
// candidates in descending max-over-queries bound order: likely-strong
// candidates score first, so each floor tightens almost immediately and
// pruning stays effective even when the strong candidates are rare and
// late in input order. The first K exactly-scored candidates are the
// highest-bound ones, which seeds the floor better than the paper's
// stage-1 coarse sampling did, and for free. Order never affects the
// result — only how fast the thresholds rise.
//
// Corpus-scale pruned inputs route through the shape index even without a
// prebuilt one: the grouped candidates are materialized once (positions
// preserved — they are the ranking tie-break), the sharded envelope index
// is built over them, and traverse descends it best-first instead of
// bounding all n. Below lazyIndexMinCorpus the flat scan stays cheaper
// than the build.
//
// Distance baselines have no bound and no unit signatures to share: each
// plan runs its own distanceRun over the candidates.
func scan(ctx context.Context, plans []*Plan, n int, viz func(int) *Viz) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p0 := plans[0]
	if p0.distance {
		out := make([][]Result, len(plans))
		for q, p := range plans {
			res, err := p.distanceRun(ctx, n, viz)
			if err != nil {
				return nil, err
			}
			out[q] = res
		}
		return out, nil
	}
	if p0.prune && !p0.opts.DisableAutoIndex && n >= lazyIndexMinCorpus {
		vizs := make([]*Viz, n)
		if err := forEachIndex(ctx, p0.opts.Parallelism, n, func(_, i int) { vizs[i] = viz(i) }); err != nil {
			return nil, err
		}
		ix, err := BuildVizIndexContext(ctx, vizs, 0)
		if err != nil {
			return nil, err
		}
		return traverse(ctx, plans, ix, nil)
	}

	r := newBatchRun(plans, n)
	defer r.release()
	Q := len(plans)
	slots := make([]slot, n*Q)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if p0.prune {
		maxUB := make([]float64, n)
		err := forEachIndex(ctx, len(r.ecs), n, func(worker, i int) {
			maxUB[i] = math.Inf(-1)
			if v := viz(i); v != nil {
				maxUB[i] = r.bound(r.ecs[worker], v, int32(i), slots[i*Q:(i+1)*Q])
			}
		})
		if err != nil {
			return nil, err
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(maxUB[b], maxUB[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	err := forEachIndex(ctx, len(r.ecs), n, func(worker, j int) {
		if r.abort.Load() {
			return
		}
		i := order[j]
		s := slots[i*Q : (i+1)*Q]
		v := s[0].v // bounded candidates carry their viz
		if !p0.prune {
			v = viz(i)
		}
		if v != nil {
			r.score(r.ecs[worker], v, int32(i), s)
		}
	})
	return r.finish(ctx, slots, err)
}

// traverse is the index driver: per-shard best-first traversal on the
// worker pool, one worker per shard slot, every shard pruning by the same
// per-query heaps (a floor raised in any shard prunes subtrees in every
// other). A subtree is skipped only when its envelope bound trails the
// weakest query's floor; within a surviving leaf, members are bounded and
// scored by the shared step in descending-bound order (ties by corpus id),
// the flat scan's bound-first discipline at bucket granularity. Slots are
// kept for visited members only — sparse, so skipped corpus stays untouched
// in memory too — and deferred verification covers exactly them:
// unvisited members' envelope bound, which dominates their exact score,
// was below a floor that only rose. st, when non-nil, receives the
// traversal counts.
func traverse(ctx context.Context, plans []*Plan, ix *VizIndex, st *IndexStats) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nShards := ix.ix.NumShards()
	r := newBatchRun(plans, nShards)
	defer r.release()
	Q := len(plans)
	// The traversal floor is the weakest query's: −Inf until every heap
	// fills, so nothing is skipped before each query has k exact scores.
	minFloor := func() float64 {
		f := math.Inf(1)
		for _, h := range r.heaps {
			if v := h.fastFloor(); v < f {
				f = v
			}
		}
		return f
	}
	// Per shard, one block of slots per visited leaf, Q per member: sized
	// exactly, where one growing slice per shard would allocate up to twice
	// the visited slots.
	perShard := make([][][]slot, nShards)
	var leaves, visited atomic.Int64
	err := forEachIndex(ctx, len(r.ecs), nShards, func(worker, si int) {
		ec := r.ecs[worker]
		var (
			blocks [][]slot
			keys   []float64 // the current leaf's max-over-queries bounds
			order  []int
		)
		ix.ix.Traverse(si,
			func(env *shapeindex.Summary) float64 {
				ec.resetBoundCaches(plans[0].opts.chainMeta)
				best := math.Inf(-1)
				for _, p := range plans {
					if b := envelopeUpperBound(ec, env, p.norm, p.opts); b > best {
						best = b
					}
				}
				return best
			},
			minFloor,
			boundEps,
			func(members []int32, _ float64) bool {
				if r.abort.Load() || ctx.Err() != nil {
					return false
				}
				leaves.Add(1)
				visited.Add(int64(len(members)))
				slots := make([]slot, 0, len(members)*Q)
				keys, order = keys[:0], order[:0]
				for _, id := range members {
					v := ix.vizs[id]
					if v == nil {
						continue // update-nilled slot: folds unboundable, nothing to score
					}
					slots = slots[:len(slots)+Q]
					order = append(order, len(keys))
					keys = append(keys, r.bound(ec, v, id, slots[len(slots)-Q:]))
				}
				blocks = append(blocks, slots)
				slices.SortFunc(order, func(a, b int) int {
					if c := cmp.Compare(keys[b], keys[a]); c != 0 {
						return c
					}
					return cmp.Compare(slots[a*Q].id, slots[b*Q].id)
				})
				for _, m := range order {
					s := slots[m*Q : (m+1)*Q]
					if !r.score(ec, s[0].v, s[0].id, s) {
						return false
					}
				}
				return true
			})
		perShard[si] = blocks
	})
	res, err := r.finish(ctx, slices.Concat(slices.Concat(perShard...)...), err)
	if err == nil && st != nil {
		*st = IndexStats{
			Candidates: ix.Len(),
			Leaves:     int(leaves.Load()),
			Visited:    int(visited.Load()),
			Scored:     int(r.scored.Load()),
		}
	}
	return res, err
}

// forEachIndex runs fn over [0, n) on the given number of worker
// goroutines (inline when one suffices), returning once all calls finish.
// fn receives its worker's index (always < workers) so callers can hand
// each worker private state. Cancellation is cooperative: once ctx is done
// no further indices are dispatched, in-flight calls finish, and the
// context's error is returned.
func forEachIndex(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return ctx.Err()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain the channel without scoring
				}
				fn(worker, i)
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}
