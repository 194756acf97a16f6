package executor

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"shapesearch/internal/dataset"
	"shapesearch/internal/dtw"
	"shapesearch/internal/shape"
	"shapesearch/internal/topk"
)

// Plan is a compiled query: validation, normalization, solver selection and
// nested sub-query compilation are done once at Compile time, so the same
// plan can be executed against many series collections (and from many
// goroutines) without repeating that work. Plans are immutable after
// Compile and safe for concurrent use.
type Plan struct {
	opts *Options
	norm shape.Normalized
	// solver segments fuzzy unit runs; nil for distance rankings.
	solver runSolver
	// distance marks the DTW/Euclidean value-based baselines.
	distance bool
	// prune enables the two-stage collective pruning pipeline.
	prune bool
	// pinned holds the query's pinned x windows; allPinned reports whether
	// every segment is pinned (the non-fuzzy push-down case).
	pinned    [][2]float64
	allPinned bool
	// yConstrained disables z-normalization in GROUP (Section 5.3).
	yConstrained bool
}

// Compile prepares a query for repeated execution: it validates the query,
// normalizes it into alternative chains, selects the segmentation solver,
// pre-normalizes nested sub-queries, and checks user-defined pattern
// references — everything that previously ran per SearchSeries call.
func Compile(q shape.Query, opts Options) (*Plan, error) {
	o := opts.normalized()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	norm, err := shape.Normalize(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{opts: o, norm: norm}
	p.pinned, p.allPinned = q.XRanges()
	p.yConstrained = q.HasYConstraints()
	switch o.Algorithm {
	case AlgDTW, AlgEuclidean:
		p.distance = true
	default:
		p.solver, err = o.solver(norm)
		if err != nil {
			return nil, err
		}
		p.prune = o.Pruning && (o.Algorithm == AlgAuto || o.Algorithm == AlgSegmentTree)
	}
	// Hoist everything query-static out of the per-visualization chain
	// compilation and the per-range scoring hot path: nested sub-query
	// normalization and UDP resolution (validated once, plan-wide), the
	// ITERATOR's inner segment node, and sketch query-y extraction. The
	// worklist covers nested sub-queries' own chains (and their nested
	// sub-queries, transitively) so nested evaluation hits the same hoists.
	pre := make(map[*shape.Node]shape.Normalized)
	iterInner := make(map[*shape.Node]*shape.Node)
	sketchQY := make(map[*shape.Node][]float64)
	var compileErr error
	work := []shape.Normalized{norm}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		for _, alt := range cur.Alternatives {
			for _, u := range alt.Units {
				u.Node.Walk(func(m *shape.Node) {
					if compileErr != nil || m.Kind != shape.NodeSegment {
						return
					}
					seg := m.Seg
					if seg.Pat.Kind == shape.PatUDP {
						if _, ok := o.UDPs.Lookup(seg.Pat.Name); !ok {
							compileErr = fmt.Errorf("executor: unknown user-defined pattern %q", seg.Pat.Name)
						}
					}
					if seg.Pat.Kind == shape.PatNested {
						if _, done := pre[seg.Pat.Sub]; !done {
							sub, err := shape.Normalize(shape.Query{Root: seg.Pat.Sub})
							if err != nil {
								compileErr = err
								return
							}
							pre[seg.Pat.Sub] = sub
							work = append(work, sub)
						}
					}
					var qy []float64
					if len(seg.Sketch) > 0 {
						qy = make([]float64, len(seg.Sketch))
						for k, pt := range seg.Sketch {
							qy[k] = pt.Y
						}
						sketchQY[m] = qy
					}
					if seg.Loc.HasIterator() {
						inner := *seg
						inner.Loc = shape.Location{YS: seg.Loc.YS, YE: seg.Loc.YE}
						innerNode := &shape.Node{Kind: shape.NodeSegment, Seg: &inner}
						iterInner[m] = innerNode
						if qy != nil {
							// The inner segment shares the sketch; key the
							// hoisted y values under its node too.
							sketchQY[innerNode] = qy
						}
					}
				})
			}
		}
	}
	if compileErr != nil {
		return nil, compileErr
	}
	if len(pre) > 0 {
		o.nestedPre = pre
	}
	if len(iterInner) > 0 {
		o.iterInner = iterInner
	}
	if len(sketchQY) > 0 {
		o.sketchQY = sketchQY
	}
	o.compiled = true
	o.chainMeta = buildChainMeta(norm)
	return p, nil
}

// Options returns a copy of the plan's normalized options.
func (p *Plan) Options() Options { return *p.opts }

// Fingerprint returns the plan's canonical query fingerprint: the
// normalized alternative chains' signatures in order (see
// shape.Normalized.Fingerprint). Two plans compiled from queries with equal
// fingerprints and equal effective Options are interchangeable — identical
// scores, ranking and assignments on every input — which is the keying
// contract of the server-side compiled-plan cache.
func (p *Plan) Fingerprint() string { return p.norm.Fingerprint() }

// WithParallelism returns a plan identical to p but scoring with n workers
// (n <= 0 keeps p's setting). The copy is shallow: the normalized query,
// solver, chain metadata and hoisted compile state are shared read-only, so
// the call is allocation-cheap — this is how a cached plan serves requests
// with per-request worker budgets without recompiling or mutating the
// shared entry.
func (p *Plan) WithParallelism(n int) *Plan {
	if n <= 0 || n == p.opts.Parallelism {
		return p
	}
	o := *p.opts
	o.Parallelism = n
	q := *p
	q.opts = &o
	return &q
}

// EffectiveSpec applies the LOCATION push-down of Section 5.4 (a)/(c) to an
// extraction spec: when every segment is pinned, rows outside the referenced
// x windows are never materialized.
func (p *Plan) EffectiveSpec(spec dataset.ExtractSpec) dataset.ExtractSpec {
	if p.opts.Pushdown && p.allPinned && len(p.pinned) > 0 {
		pad := 0.0
		for _, r := range p.pinned {
			if w := (r[1] - r[0]) * 0.05; w > pad {
				pad = w
			}
		}
		spec.XRanges = padRanges(p.pinned, pad)
	}
	return spec
}

// CandidateKey fingerprints everything that determines the plan's grouped
// candidate set for a spec: the effective extraction spec plus the GROUP
// configuration (z-normalization and push-down skip windows). Two plans
// with equal keys over the same table produce identical GroupSeries output,
// which is the server-side candidate cache's keying contract. The dataset
// identity itself is NOT part of the key; cache owners must scope keys by
// dataset (and invalidate on upload).
func (p *Plan) CandidateKey(spec dataset.ExtractSpec) string {
	espec := p.EffectiveSpec(spec)
	var sb strings.Builder
	// Variable-length string fields are %q-escaped so crafted values (e.g.
	// embedded NULs in a filter string) cannot forge another spec's key.
	fmt.Fprintf(&sb, "z=%q\x00x=%q\x00y=%q\x00agg=%d", espec.Z, espec.X, espec.Y, int(espec.Agg))
	for _, f := range espec.Filters {
		fmt.Fprintf(&sb, "\x00f=%q|%d|%g|%q", f.Col, int(f.Op), f.Num, f.Str)
	}
	for _, r := range espec.XRanges {
		fmt.Fprintf(&sb, "\x00xr=%g:%g", r[0], r[1])
	}
	fmt.Fprintf(&sb, "\x00znorm=%v", !p.yConstrained)
	if p.opts.Pushdown && len(p.pinned) > 0 {
		// Push-down (a) filtering and (c) skip windows shape the grouped
		// candidates; both derive deterministically from the pinned ranges.
		fmt.Fprintf(&sb, "\x00pd=%v", p.allPinned)
		for _, r := range p.pinned {
			fmt.Fprintf(&sb, "\x00pin=%g:%g", r[0], r[1])
		}
	}
	return sb.String()
}

// PinFree reports whether the plan's grouped candidate set is per-series
// local: no push-down pinned windows filter series in or out of the
// collection, and no skip-window padding depends on the collection's
// sampling interval. Exactly these plans admit per-group cache patching on
// append — GroupSeries over any one series is independent of the others, so
// a touched group can be regrouped alone and spliced into a cached slice.
// Pinned push-down plans must be dropped and rebuilt instead.
func (p *Plan) PinFree() bool {
	return !p.opts.Pushdown || len(p.pinned) == 0
}

// groupCfg builds the GROUP configuration for a series collection (the
// skip-window padding depends on the collection's sampling interval).
func (p *Plan) groupCfg(series []dataset.Series) groupConfig {
	gcfg := groupConfig{zNormalize: !p.yConstrained}
	if p.opts.Pushdown && p.allPinned && len(p.pinned) > 0 {
		gcfg.keepRanges = padRanges(p.pinned, xStep(series)*1.5)
	}
	return gcfg
}

// GroupSeries runs the push-down filter and the GROUP operator over a
// series collection, returning the candidate visualizations RunGrouped
// scores. The result is what a serving layer caches to skip EXTRACT +
// GROUP on repeated queries with the same visual parameters.
func (p *Plan) GroupSeries(series []dataset.Series) []*Viz {
	if p.opts.Pushdown && len(p.pinned) > 0 {
		series = filterSeriesWithData(series, p.pinned)
	}
	gcfg := p.groupCfg(series)
	vizs := make([]*Viz, 0, len(series))
	for _, s := range series {
		if v := group(s, gcfg); v != nil {
			vizs = append(vizs, v)
		}
	}
	return vizs
}

// Search runs the full EXTRACT → GROUP → SEGMENT → SCORE pipeline over a
// data source: a bare *dataset.Table (legacy row-at-a-time extraction) or a
// *dataset.Index (columnar extraction with dictionary-encoded grouping and
// vectorized filters). Filter validation happens once, up front, inside the
// source's Extract — never per row.
func (p *Plan) Search(src dataset.Source, spec dataset.ExtractSpec) ([]Result, error) {
	return p.SearchContext(context.Background(), src, spec)
}

// SearchContext is Search with cooperative cancellation: once ctx is done,
// workers stop pulling candidates, the pool drains, and the call returns
// ctx.Err(). Cancellation is checked between candidates (and between
// bounding-pass candidates), so an abandoned request frees its workers
// within one candidate's scoring time.
func (p *Plan) SearchContext(ctx context.Context, src dataset.Source, spec dataset.ExtractSpec) ([]Result, error) {
	// Extraction itself is not interruptible, but never start it for a
	// request that is already dead — on large tables EXTRACT is the most
	// expensive phase before scoring.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	series, err := src.Extract(p.EffectiveSpec(spec))
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, series)
}

// Run ranks pre-extracted series against the compiled query.
func (p *Plan) Run(series []dataset.Series) ([]Result, error) {
	return p.RunContext(context.Background(), series)
}

// RunContext is Run with cooperative cancellation (see SearchContext).
func (p *Plan) RunContext(ctx context.Context, series []dataset.Series) ([]Result, error) {
	if p.opts.Pushdown && len(p.pinned) > 0 {
		series = filterSeriesWithData(series, p.pinned)
	}
	gcfg := p.groupCfg(series)
	return p.run(ctx, len(series), func(i int) *Viz { return group(series[i], gcfg) })
}

// RunGrouped ranks pre-grouped candidate visualizations (from GroupSeries,
// possibly served from a cache) against the compiled query, skipping the
// EXTRACT and GROUP stages entirely.
func (p *Plan) RunGrouped(vizs []*Viz) ([]Result, error) {
	return p.RunGroupedContext(context.Background(), vizs)
}

// RunGroupedContext is RunGrouped with cooperative cancellation (see
// SearchContext).
func (p *Plan) RunGroupedContext(ctx context.Context, vizs []*Viz) ([]Result, error) {
	return p.run(ctx, len(vizs), func(i int) *Viz { return vizs[i] })
}

// sharedTopK is the mutex-guarded heap every pipeline worker feeds; its
// floor (the current k-th best score) is the live pruning threshold. The
// floor is additionally published as an atomic float64 bit pattern, updated
// under the lock in add and read lock-free in the per-candidate hot path —
// the floor is consulted once per candidate per worker, and a monotone,
// possibly slightly stale threshold only affects how much is pruned, never
// what the final top-k is (pruned candidates are verified against the exact
// final floor).
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

// slot is one candidate's pipeline outcome, indexed by input position.
// Evaluated candidates carry their score and winning ranges; the Result
// (and its BreakXs) is built only for the final top-k. Pruned candidates
// are never discarded — they carry their grouped viz and sound upper bound
// so the deferred verification stage can exactly re-score any of them that
// the final top-k floor fails to dominate.
type slot struct {
	v      *Viz
	ub     float64
	score  float64
	ranges [][2]int
	ok     bool
	pruned bool
}

// scoredSlot is the outcome of an exact evaluation of v.
func scoredSlot(v *Viz, sc float64, ranges [][2]int) slot {
	return slot{v: v, score: sc, ranges: ranges, ok: true}
}

// topKSlots selects the top-k results from the filled slots by
// (score descending, input index ascending) — the deterministic tie rule
// every engine shares, so pruned, parallel and sequential runs rank
// identically.
func topKSlots(slots []slot, k int) []Result {
	idx := make([]int, 0, len(slots))
	for i := range slots {
		if slots[i].ok {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := slots[idx[a]].score, slots[idx[b]].score
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
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

// run is the unified scoring pipeline: a pool of Parallelism workers pulls
// candidate indices, groups/evaluates them, and shares one top-k heap whose
// floor is the collective pruning threshold fed to soundUpperBound (Section
// 6.3). Pruning and parallelism compose: with one worker the pipeline
// degenerates to a sequential pruned scan; with many, every worker both
// benefits from and tightens the shared threshold.
//
// Lossless pruning: a candidate is pruned only when a provable upper bound
// on its score (soundUpperBound) trails the live threshold, and even then
// it is recorded, not discarded. After the main pass, any pruned candidate
// whose bound reaches the final top-k floor is exactly re-scored on the
// same worker pool before results are rebuilt. The returned top-k is
// therefore identical — scores and ranking — to the unpruned scan: a
// candidate absent from it either scored below the floor, or carried a
// sound bound (hence an exact score) below the floor. The verification
// stage normally re-scores nothing (the floor comes only from exact scores
// and only rises, so a pruned candidate's bound stays below the final
// floor); it exists so that any future bound regression degrades to wasted
// work, never to a wrong answer.
//
// Determinism: workers fill per-index slots and the final top-k is selected
// by (score, input index), so results are identical under any worker
// interleaving, pruned or not.
func (p *Plan) run(ctx context.Context, n int, viz func(int) *Viz) ([]Result, error) {
	o := p.opts
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.distance {
		return p.distanceRun(ctx, n, viz)
	}

	workers := o.Parallelism
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	if p.prune && !o.DisableAutoIndex && n >= lazyIndexMinCorpus {
		// Corpus-scale inputs route through the shape index even without a
		// prebuilt one: materialize the grouped candidates once (positions
		// preserved — they are the ranking tie-break), build the sharded
		// envelope index over them, and traverse best-first instead of
		// bounding all n. Below the threshold the flat scan stays cheaper
		// than the build.
		vizs := make([]*Viz, n)
		if ctxErr := forEachIndex(ctx, workers, n, func(_, i int) { vizs[i] = viz(i) }); ctxErr != nil {
			return nil, ctxErr
		}
		ix, ixErr := BuildVizIndexContext(ctx, vizs, 0)
		if ixErr != nil {
			return nil, ixErr
		}
		return p.runIndexed(ctx, ix, nil)
	}

	// Per-worker evaluation contexts: every buffer the scoring kernel
	// needs, pooled across runs so steady-state scoring allocates nothing.
	ecs := make([]*evalCtx, workers)
	for i := range ecs {
		ecs[i] = getEvalCtx()
	}
	defer func() {
		for _, ec := range ecs {
			putEvalCtx(ec)
		}
	}()

	var (
		errMu    sync.Mutex
		firstErr error
		abort    atomic.Bool
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort.Store(true)
	}

	slots := make([]slot, n)
	shared := newSharedTopK(o.K)

	// Bound-first ordering: with pruning on, every candidate is grouped and
	// bounded up front (the bounds must be recorded anyway for the deferred
	// verification stage), and the scoring pass visits candidates in
	// descending-bound order. Likely-strong candidates score first, so the
	// shared floor tightens almost immediately and pruning stays effective
	// even when the strong candidates are rare and late in input order.
	// Order never affects soundness — only how fast the threshold rises.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if p.prune {
		ctxErr := forEachIndex(ctx, workers, n, func(worker, i int) {
			v := viz(i)
			if v == nil {
				return
			}
			slots[i] = slot{v: v, ub: soundUpperBound(ecs[worker], v, p.norm, o), pruned: true}
		})
		if ctxErr != nil {
			return nil, ctxErr
		}
		sort.Slice(order, func(a, b int) bool {
			ua, ub := slots[order[a]].ub, slots[order[b]].ub
			if ua != ub {
				return ua > ub
			}
			return order[a] < order[b]
		})
	}

	ctxErr := forEachIndex(ctx, workers, n, func(worker, j int) {
		if abort.Load() {
			return
		}
		i := order[j]
		var v *Viz
		if p.prune {
			v = slots[i].v
		} else {
			v = viz(i)
		}
		if v == nil {
			return
		}
		if o.Algorithm == AlgExhaustive && v.N() > o.MaxExhaustivePoints {
			fail(fmt.Errorf("executor: exhaustive search limited to %d points, series %q has %d",
				o.MaxExhaustivePoints, v.Series.Z, v.N()))
			return
		}
		if p.prune {
			// The floor is seeded by the bound-first scan itself: the first
			// K exactly-scored candidates are the highest-bound ones, which
			// is what the deleted stage-1 coarse sampling approximated at
			// extra cost (it lost 3–50% end-to-end on every measured
			// workload once this ordering existed).
			threshold := shared.fastFloor() + o.pruneThresholdBias
			if !math.IsInf(threshold, -1) && slots[i].ub < threshold {
				return // stays recorded as pruned, with its bound
			}
		}
		sc, ranges, err := evalViz(ecs[worker], v, p.norm, o, p.solver)
		if err != nil {
			fail(err)
			return
		}
		if p.prune {
			// Tighten the live threshold. Without pruning nothing reads the
			// shared floor, so skip the lock; the final top-k is rebuilt
			// from slots either way.
			shared.add(sc)
		}
		slots[i] = scoredSlot(v, sc, ranges)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if ctxErr != nil {
		return nil, ctxErr
	}

	if p.prune {
		// The shared heap saw every exactly-scored candidate, so its floor
		// is the final top-k floor the verification stage compares against.
		floor, full := shared.floor()
		if err := p.verifyPruned(ctx, workers, ecs, slots, floor, full, fail, &abort); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}

	return topKSlots(slots, o.K), nil
}

// verifyPruned is the deferred exact-verification stage (stage 3 of the
// lossless pruning): every pruned candidate whose sound upper bound is not
// strictly dominated by the final top-k floor (the shared heap's floor
// after the main pass; full is false while fewer than k candidates scored,
// and then every pruned candidate is verified) is re-scored exactly on the
// worker pool, in place. Rescoring can only add results at or above the
// floor, so a single pass suffices: candidates it leaves pruned carry a
// bound — and therefore an exact score — provably below the floor.
func (p *Plan) verifyPruned(ctx context.Context, workers int, ecs []*evalCtx, slots []slot, floor float64, full bool, fail func(error), abort *atomic.Bool) error {
	rescue := make([]int, 0, 16)
	for i := range slots {
		if slots[i].pruned && (!full || slots[i].ub >= floor-boundEps) {
			rescue = append(rescue, i)
		}
	}
	if len(rescue) == 0 {
		return nil
	}
	return forEachIndex(ctx, workers, len(rescue), func(worker, j int) {
		if abort.Load() {
			return
		}
		i := rescue[j]
		sc, ranges, err := evalViz(ecs[worker], slots[i].v, p.norm, p.opts, p.solver)
		if err != nil {
			fail(err)
			return
		}
		slots[i] = scoredSlot(slots[i].v, sc, ranges)
	})
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

// distanceRun ranks visualizations by DTW or Euclidean distance to a
// reference trendline synthesized from the query — the value-based matching
// of visual query systems that Section 9 compares against. The scan runs on
// the same worker pool as the segmentation engines; the per-(alternative,
// length) reference memo is shared under a read-favoring lock, and the
// top-k is selected from per-index slots with the pipeline's (score, index)
// tie rule so the ranking is identical to the sequential scan under any
// interleaving.
func (p *Plan) distanceRun(ctx context.Context, n int, viz func(int) *Viz) ([]Result, error) {
	o := p.opts
	workers := o.Parallelism
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	type refKey struct{ alt, n int }
	var (
		refMu sync.RWMutex
		refs  = make(map[refKey][]float64) // reference per alternative index and length
	)
	refFor := func(ai int, alt shape.Chain, length int) []float64 {
		key := refKey{ai, length}
		refMu.RLock()
		ref, ok := refs[key]
		refMu.RUnlock()
		if ok {
			return ref
		}
		computed := dtw.ZNormalized(renderReference(alt, length))
		refMu.Lock()
		if prev, ok := refs[key]; ok {
			computed = prev // lost the race; keep the first
		} else {
			refs[key] = computed
		}
		refMu.Unlock()
		return computed
	}
	slots := make([]slot, n)
	err := forEachIndex(ctx, workers, n, func(_, i int) {
		v := viz(i)
		if v == nil {
			return
		}
		target := dtw.ZNormalized(v.Series.Y)
		best := math.Inf(-1)
		for ai, alt := range p.norm.Alternatives {
			ref := refFor(ai, alt, v.N())
			var d float64
			if o.Algorithm == AlgDTW {
				d = dtw.BandDistance(ref, target, o.DTWBand)
			} else {
				d = dtw.Euclidean(ref, target)
			}
			if sc := dtw.Similarity(d, v.N(), 2.0); sc > best {
				best = sc
			}
		}
		slots[i] = scoredSlot(v, best, nil)
	})
	if err != nil {
		return nil, err
	}
	return topKSlots(slots, o.K), nil
}
