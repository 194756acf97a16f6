package executor

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"shapesearch/internal/dataset"
	"shapesearch/internal/dtw"
	"shapesearch/internal/shape"
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
	// prune enables lossless collective pruning: the bound-first scan (or
	// index traversal) plus deferred exact verification.
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
// references — once per plan, not once per run.
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
	o.chainMeta = buildChainMeta(norm)
	return p, nil
}

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

// groupInput runs the push-down filter over a series collection, dropping
// series with no data in a pinned window, and builds the GROUP
// configuration for what is left (the skip-window padding depends on the
// collection's sampling interval).
func (p *Plan) groupInput(series []dataset.Series) ([]dataset.Series, groupConfig) {
	if p.opts.Pushdown && len(p.pinned) > 0 {
		series = filterSeriesWithData(series, p.pinned)
	}
	gcfg := groupConfig{zNormalize: !p.yConstrained}
	if p.opts.Pushdown && p.allPinned && len(p.pinned) > 0 {
		gcfg.keepRanges = padRanges(p.pinned, xStep(series)*1.5)
	}
	return series, gcfg
}

// GroupSeries runs the push-down filter and the GROUP operator over a
// series collection, returning the candidate visualizations
// RunGroupedContext scores. The result is what a serving layer caches to
// skip EXTRACT + GROUP on repeated queries with the same visual
// parameters. It is GroupSeriesPooled without a pool.
func (p *Plan) GroupSeries(series []dataset.Series) []*Viz {
	return p.GroupSeriesPooled(nil, series)
}

// SearchContext runs the full EXTRACT → GROUP → SEGMENT → SCORE pipeline
// over a data source: a bare *dataset.Table, which extracts through a
// transient index, or a long-lived *dataset.Index, which keeps the
// encodings and layouts its extractions build. Filter validation happens
// once, up front, inside the source's Extract — never per row.
//
// Cancellation is cooperative: once ctx is done, workers stop pulling
// candidates, the pool drains, and the call returns ctx.Err(). It is
// checked between candidates (and between bounding-pass candidates), so an
// abandoned request frees its workers within one candidate's scoring time.
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

// RunContext ranks pre-extracted series against the compiled query, with
// cooperative cancellation (see SearchContext).
func (p *Plan) RunContext(ctx context.Context, series []dataset.Series) ([]Result, error) {
	return first(runSeries(ctx, []*Plan{p}, series))
}

// runSeries ranks series for a batch of plans that share one candidate key,
// and so one push-down filter and GROUP configuration (the first plan's):
// each series left after the filter is grouped inside the scan's workers,
// on its own x side: no chart follows another there to share one. A
// series that groups to nil is skipped; the others tie-break by their
// position in the filtered slice.
func runSeries(ctx context.Context, plans []*Plan, series []dataset.Series) ([][]Result, error) {
	series, gcfg := plans[0].groupInput(series)
	return scan(ctx, plans, len(series), func(i int) *Viz { return group(series[i], gcfg) })
}

// RunGroupedContext ranks pre-grouped candidate visualizations (from
// GroupSeries, possibly served from a cache) against the compiled query,
// skipping the EXTRACT and GROUP stages entirely, with cooperative
// cancellation (see SearchContext).
func (p *Plan) RunGroupedContext(ctx context.Context, vizs []*Viz) ([]Result, error) {
	return first(scan(ctx, []*Plan{p}, len(vizs), func(i int) *Viz { return vizs[i] }))
}

// RunGrouped is RunGroupedContext without cancellation. It stays only
// because cmd/shapebench, a module of its own, calls it; new code calls
// RunGroupedContext.
func (p *Plan) RunGrouped(vizs []*Viz) ([]Result, error) {
	return p.RunGroupedContext(context.Background(), vizs)
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
	err := forEachIndex(ctx, o.Parallelism, n, func(_, i int) {
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
				d = dtw.Distance(ref, target)
			} else {
				d = dtw.Euclidean(ref, target)
			}
			if sc := dtw.Similarity(d, v.N(), 2.0); sc > best {
				best = sc
			}
		}
		slots[i] = slot{v: v, score: best, id: int32(i), ok: true}
	})
	if err != nil {
		return nil, err
	}
	return topK(slots, 0, 1, o.K), nil
}
