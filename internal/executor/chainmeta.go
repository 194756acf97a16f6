package executor

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"shapesearch/internal/shape"
)

// chainMeta is the plan-wide, data-independent analysis of a query's
// normalized alternatives, built once at Compile. It is what lets
// per-candidate evaluation cost scale with the *distinct* work across
// alternatives instead of the alternative count:
//
//   - every unit's canonical signature (shape.Unit.Signature, nested
//     sub-queries included) is interned to a small id; alternatives produced
//     by cross-concatenation share ids for the units they share, and the
//     per-candidate unit-score memo (evalCtx.memo) is keyed on them;
//   - the pinned x endpoints of every unit are hoisted here so per-candidate
//     chain compilation stops walking unit trees;
//   - alternatives are ordered by unit count so same-k alternatives score
//     consecutively over one shared candidate grid / SegmentTree skeleton
//     (evalCtx.treeGrid) per (viz, k) group;
//   - pin-free alternatives whose sound upper bound is provably identical —
//     same unit count and same multiset of (signature, weight), the bound
//     being order-independent within a fuzzy run — share a bound group, so
//     soundUpperBound derives each distinct bound once per candidate.
//
// chainMeta is immutable after Compile and shared by every worker.
type chainMeta struct {
	alts []altMeta
	// order holds alternative indices grouped by ascending unit count
	// (original order within a group).
	order []int
	// memoOn reports whether any memo-eligible signature occurs more than
	// once across (alternative, slot) contexts — the only case where the
	// per-signature score memo can pay for its probes. It gates that memo
	// alone: bare-pattern units take their range angle from the viz's kept
	// table or the fit memo either way (unitScore), and non-bare patterns
	// share the fit memo, so a query whose signatures all occur once
	// (u ; d) still fits and atans each range at most once per candidate.
	memoOn bool
	// nSigs is the number of distinct unit signatures.
	nSigs int
	// sigFast classifies, per signature id, bare-pattern units — a single
	// segment with only an unmodified up/down/flat/θ/*/empty pattern (no
	// location, sketch, or modifier). Their score is a fixed function of
	// the range's fitted angle, so unitScore serves them straight from the
	// viz's range angles or the per-candidate fit memo (shared across
	// signatures) with no per-sig score memo traffic. PatNone marks
	// signatures that are not fast.
	sigFast []shape.PatternKind
	// sigFastTarget is the θ target for fast PatSlope signatures.
	sigFastTarget []float64
	// bare reports that every unit of every alternative of this query is a
	// bare pattern (sigFast ≠ PatNone): each alternative's score on a
	// skip-free chart is then a fixed function of the range angles its
	// segmentation picks, which is what the tiling bound (prune.go) needs.
	bare bool
	// fast reports that some unit of this query is a bare pattern, so its
	// exact evaluation reads range angles (anglesApply).
	fast bool
	// nBoundGroups is the number of distinct pin-free chain-bound groups.
	nBoundGroups int
}

// altMeta is the compile-time analysis of one normalized alternative.
type altMeta struct {
	// sigs is the per-unit memo signature id; −1 marks units whose score is
	// position-dependent (POSITION references) and must not be shared.
	sigs []int
	// bsigs is the per-unit structural signature id, always valid — the
	// sound bound is structure-determined even for POSITION units.
	bsigs []int
	// pins carries each unit's pinned x endpoints.
	pins []unitPin
	// boundGroup identifies the alternative's sound-bound equivalence class
	// among pin-free chains; −1 when the chain has pins (its bound depends
	// on data-resolved anchors and is derived individually).
	boundGroup int
}

// unitPin is a unit's pinned x endpoints, hoisted out of the per-candidate
// compile path.
type unitPin struct {
	xs, xe     float64
	hasS, hasE bool
}

// sigIntern is the mutable interning state behind chainMeta construction.
// For a single plan it is private to one buildChainMeta call; for a batch
// (CompileBatch / NewMultiPlan) one sigIntern spans every query's normalized
// alternatives, so signature ids — and with them the per-candidate score
// memo keys, the fit memo, and the bound-group dedup — are global across the
// batch: two queries sharing a unit share its evaluation on every candidate.
type sigIntern struct {
	ids map[string]int
	// eligCount counts memo-eligible occurrences per signature id across
	// all (alternative, slot) contexts of every query added so far.
	eligCount     []int
	sigFast       []shape.PatternKind
	sigFastTarget []float64
	boundGroups   map[string]int
	memoOn        bool
}

func newSigIntern() *sigIntern {
	return &sigIntern{ids: make(map[string]int), boundGroups: make(map[string]int)}
}

// add interns one query's normalized alternatives, returning its chainMeta
// with the per-alternative fields (sigs, pins, order, bound groups) filled.
// The intern-wide fields (signature tables, counts, memoOn) are stamped by
// finalize once every query has been added — the shared tables may still
// grow while later queries intern.
func (st *sigIntern) add(norm shape.Normalized) *chainMeta {
	m := &chainMeta{alts: make([]altMeta, len(norm.Alternatives))}
	for ai, alt := range norm.Alternatives {
		am := &m.alts[ai]
		k := len(alt.Units)
		am.sigs = make([]int, k)
		am.bsigs = make([]int, k)
		am.pins = make([]unitPin, k)
		pinFree := true
		for t, u := range alt.Units {
			sig := u.Signature()
			id, ok := st.ids[sig]
			if !ok {
				id = len(st.ids)
				st.ids[sig] = id
				st.eligCount = append(st.eligCount, 0)
				fk, target := fastPattern(u.Node)
				st.sigFast = append(st.sigFast, fk)
				st.sigFastTarget = append(st.sigFastTarget, target)
			}
			am.bsigs[t] = id
			if u.Node.HasDirectPositionRef() {
				am.sigs[t] = -1
			} else {
				am.sigs[t] = id
				st.eligCount[id]++
				if st.eligCount[id] > 1 {
					st.memoOn = true
				}
			}
			p := &am.pins[t]
			p.xs, p.hasS = u.PinnedStart()
			p.xe, p.hasE = u.PinnedEnd()
			if p.hasS || p.hasE {
				pinFree = false
			}
		}
		am.boundGroup = -1
		if pinFree {
			key := boundGroupKey(am.bsigs, alt.Units)
			g, ok := st.boundGroups[key]
			if !ok {
				g = len(st.boundGroups)
				st.boundGroups[key] = g
			}
			am.boundGroup = g
		}
	}
	m.order = make([]int, len(norm.Alternatives))
	for i := range m.order {
		m.order[i] = i
	}
	sort.SliceStable(m.order, func(a, b int) bool {
		return len(norm.Alternatives[m.order[a]].Units) < len(norm.Alternatives[m.order[b]].Units)
	})
	return m
}

// finalize stamps the intern-wide tables onto every chainMeta built from
// this state. All metas share the same backing slices (read-only after
// this), the same signature count, and the same memo switch — which is what
// lets batch execution reset the score/fit memos once per candidate and
// share entries across queries.
func (st *sigIntern) finalize(ms ...*chainMeta) {
	for _, m := range ms {
		m.memoOn = st.memoOn
		m.nSigs = len(st.ids)
		m.sigFast = st.sigFast
		m.sigFastTarget = st.sigFastTarget
		m.nBoundGroups = len(st.boundGroups)
		m.bare = true
		for _, am := range m.alts {
			for _, sig := range am.bsigs {
				isFast := st.sigFast[sig] != shape.PatNone
				m.bare = m.bare && isFast
				m.fast = m.fast || isFast
			}
		}
	}
}

// buildChainMeta analyzes the normalized alternatives of a query.
func buildChainMeta(norm shape.Normalized) *chainMeta {
	st := newSigIntern()
	m := st.add(norm)
	st.finalize(m)
	return m
}

// fastPattern reports whether the unit is a bare unmodified pattern segment
// whose score is a fixed function of the range's fitted angle (see
// chainMeta.sigFast). PatNone means not fast.
func fastPattern(n *shape.Node) (shape.PatternKind, float64) {
	if n.Kind != shape.NodeSegment {
		return shape.PatNone, 0
	}
	seg := n.Seg
	if seg.Mod.Kind != shape.ModNone || !seg.Loc.IsZero() || len(seg.Sketch) > 0 {
		return shape.PatNone, 0
	}
	switch seg.Pat.Kind {
	case shape.PatUp, shape.PatDown, shape.PatFlat, shape.PatSlope, shape.PatAny, shape.PatEmpty:
		return seg.Pat.Kind, seg.Pat.Slope
	default:
		return shape.PatNone, 0
	}
}

// boundGroupKey canonicalizes a pin-free chain for sound-bound equivalence:
// within a single fuzzy run the bound is Σ wₜ·hi(sigₜ, span(k)) — a
// function of the unit count and the multiset of (signature, weight) pairs,
// not their order — so the key sorts the pairs.
func boundGroupKey(bsigs []int, units []shape.Unit) string {
	type pair struct {
		sig int
		w   uint64
	}
	pairs := make([]pair, len(units))
	for t, u := range units {
		pairs[t] = pair{bsigs[t], math.Float64bits(u.Weight)}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].sig != pairs[b].sig {
			return pairs[a].sig < pairs[b].sig
		}
		return pairs[a].w < pairs[b].w
	})
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(len(units)))
	for _, p := range pairs {
		sb.WriteByte(';')
		sb.WriteString(strconv.Itoa(p.sig))
		sb.WriteByte('*')
		sb.WriteString(strconv.FormatUint(p.w, 16))
	}
	return sb.String()
}

// memoUsable reports whether the per-candidate memos can key this
// visualization: the packed (sig, i, j) key reserves 16 bits for the
// signature and 24 per range endpoint. Where they cannot, evaluation runs
// without signatures (evalVizShared); memoOn decides only whether the
// score memo is probed.
func (m *chainMeta) memoUsable(n int) bool {
	return n < 1<<24 && m.nSigs < 1<<16
}
