package nlparser

import (
	"fmt"

	"shapesearch/internal/shape"
	"shapesearch/internal/text"
)

// protoSegment is a ShapeSegment under construction: entity values
// collected between two operator entities (Section 4, "we first group all
// shape primitive entities between two operator entities into one
// ShapeSegment").
type protoSegment struct {
	pats    []text.EntityValue
	sharp   bool
	gradual bool
	// Quantifier pieces: kind is "atleast", "atmost" or "exact".
	countKind string
	count     int
	hasCount  bool
	xs, xe    *float64
	ys, ye    *float64
	width     *float64
	negated   bool
}

func (p *protoSegment) empty() bool {
	return len(p.pats) == 0 && !p.hasCount && p.xs == nil && p.xe == nil &&
		p.ys == nil && p.ye == nil && p.width == nil && !p.sharp && !p.gradual
}

type opKind int

const (
	opCat opKind = iota
	opAnd
	opOr
)

// assembly is the intermediate list of segments and connectives.
type assembly struct {
	segs []*protoSegment
	// ops[i] connects segs[i] and segs[i+1].
	ops []opKind
	// resolutions logs applied Table 4 disambiguation rules for the
	// correction panel.
	resolutions []string
}

// assemble groups tagged tokens into proto segments split at operator
// entities.
func assemble(tagged []TaggedToken) *assembly {
	a := &assembly{}
	cur := &protoSegment{}
	pendingNot := false
	flush := func(op opKind) {
		if cur.empty() {
			return
		}
		cur.negated = cur.negated || pendingNot
		pendingNot = false
		a.segs = append(a.segs, cur)
		if len(a.segs) > 1 {
			a.ops = append(a.ops, op)
		}
		cur = &protoSegment{}
	}
	lastOp := opCat
	for i, tt := range tagged {
		switch tt.Entity {
		case EntConcat:
			flush(lastOp)
			lastOp = opCat
		case EntAnd:
			flush(lastOp)
			lastOp = opAnd
		case EntOr:
			flush(lastOp)
			lastOp = opOr
		case EntNot:
			// A NOT before any segment content negates the next segment.
			if cur.empty() {
				pendingNot = true
			} else {
				flush(lastOp)
				lastOp = opAnd
				pendingNot = true
			}
		case EntPattern:
			v, ok := text.MatchValue(tt.Token.Text, []text.EntityValue{
				text.ValUp, text.ValDown, text.ValFlat, text.ValPeak, text.ValValley,
			})
			if ok {
				// A second pattern in the same proto segment usually means
				// a new step in the sequence ("rising falling" without a
				// connective): Table 4 rule 1 resolves it later; collect
				// for now.
				cur.pats = append(cur.pats, v)
			}
		case EntMod:
			switch tt.Token.Text {
			case "least":
				cur.countKind = "atleast"
			case "most":
				cur.countKind = "atmost"
			case "exactly", "precisely":
				cur.countKind = "exact"
			default:
				if v, ok := text.MatchValue(tt.Token.Text, []text.EntityValue{text.ValSharp, text.ValGradual}); ok {
					if v == text.ValSharp {
						cur.sharp = true
					} else {
						cur.gradual = true
					}
				}
			}
		case EntCount:
			if n, ok := numberOf(tt.Token); ok {
				cur.count = int(n)
				cur.hasCount = true
			}
		case EntXS:
			if n, ok := numberOf(tt.Token); ok {
				v := n
				cur.xs = &v
			}
		case EntXE:
			if n, ok := numberOf(tt.Token); ok {
				v := n
				cur.xe = &v
			}
		case EntYS:
			if n, ok := numberOf(tt.Token); ok {
				v := n
				cur.ys = &v
			}
		case EntYE:
			if n, ok := numberOf(tt.Token); ok {
				v := n
				cur.ye = &v
			}
		case EntWidth:
			if n, ok := numberOf(tt.Token); ok {
				v := n
				cur.width = &v
			}
		}
		_ = i
	}
	flush(lastOp)
	return a
}

// resolve applies the Table 4 ambiguity resolution rules in place.
func (a *assembly) resolve() {
	// Rule 1: multiple p in one ShapeSegment — move one to an adjacent
	// segment missing p, else split into two segments joined by CONCAT
	// (crowd workers listing steps) when location-free, or OR otherwise.
	for i := 0; i < len(a.segs); i++ {
		seg := a.segs[i]
		for len(seg.pats) > 1 {
			moved := false
			if i+1 < len(a.segs) && len(a.segs[i+1].pats) == 0 {
				a.segs[i+1].pats = append(a.segs[i+1].pats, seg.pats[len(seg.pats)-1])
				seg.pats = seg.pats[:len(seg.pats)-1]
				a.logf("moved extra pattern %q to the next segment", a.segs[i+1].pats[0])
				moved = true
			} else if i > 0 && len(a.segs[i-1].pats) == 0 {
				a.segs[i-1].pats = append(a.segs[i-1].pats, seg.pats[0])
				seg.pats = seg.pats[1:]
				a.logf("moved extra pattern %q to the previous segment", a.segs[i-1].pats[0])
				moved = true
			}
			if !moved {
				// Split: the extra pattern becomes its own segment in
				// sequence.
				extra := &protoSegment{pats: []text.EntityValue{seg.pats[len(seg.pats)-1]}}
				seg.pats = seg.pats[:len(seg.pats)-1]
				a.insertSegAfter(i, extra, opCat)
				a.logf("split segment with multiple patterns into a sequence")
			}
		}
	}
	// Rule 2: m with no p — move the modifier to an adjacent segment that
	// has a pattern but no modifier; else drop it.
	for i, seg := range a.segs {
		if len(seg.pats) > 0 || (!seg.sharp && !seg.gradual && !seg.hasCount) {
			continue
		}
		if seg.xs != nil || seg.xe != nil || seg.ys != nil || seg.ye != nil || seg.width != nil {
			continue // a location-only segment legitimately has no pattern
		}
		target := -1
		if i+1 < len(a.segs) && len(a.segs[i+1].pats) > 0 && !a.segs[i+1].sharp && !a.segs[i+1].gradual {
			target = i + 1
		} else if i > 0 && len(a.segs[i-1].pats) > 0 && !a.segs[i-1].sharp && !a.segs[i-1].gradual {
			target = i - 1
		}
		if target >= 0 {
			a.segs[target].sharp = a.segs[target].sharp || seg.sharp
			a.segs[target].gradual = a.segs[target].gradual || seg.gradual
			if seg.hasCount && !a.segs[target].hasCount {
				a.segs[target].hasCount = true
				a.segs[target].count = seg.count
				a.segs[target].countKind = seg.countKind
			}
			a.logf("moved dangling modifier to an adjacent segment")
		} else {
			a.logf("ignored modifier with no pattern to attach to")
		}
		seg.sharp, seg.gradual, seg.hasCount = false, false, false
	}
	// Rule 3: conflicting location and pattern — an inverted x range is
	// reinterpreted as y values when the pattern direction agrees, else the
	// endpoints are swapped.
	for _, seg := range a.segs {
		if seg.xs != nil && seg.xe != nil && *seg.xs > *seg.xe {
			if hasPat(seg, text.ValDown) && seg.ys == nil && seg.ye == nil {
				seg.ys, seg.ye = seg.xs, seg.xe
				seg.xs, seg.xe = nil, nil
				a.logf("reinterpreted decreasing x range as y values")
			} else {
				seg.xs, seg.xe = seg.xe, seg.xs
				a.logf("swapped inverted x endpoints")
			}
		}
		if seg.ys != nil && seg.ye != nil {
			if hasPat(seg, text.ValUp) && *seg.ys > *seg.ye {
				seg.ys, seg.ye = seg.ye, seg.ys
				a.logf("swapped y endpoints conflicting with a rising pattern")
			}
			if hasPat(seg, text.ValDown) && *seg.ys < *seg.ye {
				seg.ys, seg.ye = seg.ye, seg.ys
				a.logf("swapped y endpoints conflicting with a falling pattern")
			}
		}
	}
	// Rule 4: overlapping CONCAT segments — a following segment whose x
	// start precedes the previous segment's x end becomes y values when
	// missing, else the connective becomes AND.
	for i := 0; i+1 < len(a.segs); i++ {
		if a.ops[i] != opCat {
			continue
		}
		cur, next := a.segs[i], a.segs[i+1]
		if cur.xe == nil || next.xs == nil {
			continue
		}
		if *next.xs < *cur.xe {
			if next.ys == nil && next.ye == nil {
				next.ys, next.ye = next.xs, next.xe
				next.xs, next.xe = nil, nil
				a.logf("reinterpreted overlapping x range as y values")
			} else {
				a.ops[i] = opAnd
				a.logf("replaced CONCAT with AND for overlapping segments")
			}
		}
	}
}

func hasPat(seg *protoSegment, v text.EntityValue) bool {
	for _, p := range seg.pats {
		if p == v {
			return true
		}
	}
	return false
}

func (a *assembly) insertSegAfter(i int, seg *protoSegment, op opKind) {
	a.segs = append(a.segs, nil)
	copy(a.segs[i+2:], a.segs[i+1:])
	a.segs[i+1] = seg
	a.ops = append(a.ops, opCat)
	copy(a.ops[i+1:], a.ops[i:])
	a.ops[i] = op
}

func (a *assembly) logf(format string, args ...any) {
	a.resolutions = append(a.resolutions, fmt.Sprintf(format, args...))
}

// build converts the resolved assembly into a ShapeQuery tree: OR
// separates alternatives, CONCAT separates the steps of one alternative,
// and AND joins the patterns of one step.
func (a *assembly) build() (shape.Query, error) {
	if len(a.segs) == 0 {
		return shape.Query{}, fmt.Errorf("nlparser: no shape entities recognized in the query")
	}
	nodes := make([]*shape.Node, len(a.segs))
	for i, seg := range a.segs {
		n, err := buildSegment(seg)
		if err != nil {
			return shape.Query{}, err
		}
		nodes[i] = n
	}
	// Fold with precedence AND > CONCAT > OR, left-associated: split at OR
	// first, then CONCAT, then AND. An "and" between two patterns thus
	// holds both over one step ("falling and not flat then rising"); the
	// engine cannot segment an AND over a CONCAT chain, so "A and B then C"
	// must not read as A over the whole of B-then-C.
	root := foldOps(nodes, a.ops)
	q := shape.Query{Root: root}
	if err := q.Validate(); err != nil {
		return shape.Query{}, fmt.Errorf("nlparser: assembled query is invalid: %w", err)
	}
	return q, nil
}

func foldOps(nodes []*shape.Node, ops []opKind) *shape.Node {
	// Split at the lowest-precedence operator present.
	split := func(kind opKind) ([][]*shape.Node, [][]opKind, bool) {
		var nodeGroups [][]*shape.Node
		var opGroups [][]opKind
		start := 0
		found := false
		for i, op := range ops {
			if op == kind {
				nodeGroups = append(nodeGroups, nodes[start:i+1])
				opGroups = append(opGroups, ops[start:i])
				start = i + 1
				found = true
			}
		}
		if !found {
			return nil, nil, false
		}
		nodeGroups = append(nodeGroups, nodes[start:])
		opGroups = append(opGroups, ops[start:])
		return nodeGroups, opGroups, true
	}
	for _, kind := range []opKind{opOr, opCat, opAnd} {
		if groups, opGroups, ok := split(kind); ok {
			children := make([]*shape.Node, len(groups))
			for i := range groups {
				children[i] = foldOps(groups[i], opGroups[i])
			}
			switch kind {
			case opOr:
				return shape.Or(children...)
			case opAnd:
				return shape.And(children...)
			default:
				return shape.Concat(children...)
			}
		}
	}
	return nodes[0]
}

// buildSegment converts one proto segment into a MATCH node.
func buildSegment(p *protoSegment) (*shape.Node, error) {
	var seg shape.Segment
	if p.xs != nil {
		seg.Loc.XS = shape.Lit(*p.xs)
	}
	if p.xe != nil {
		seg.Loc.XE = shape.Lit(*p.xe)
	}
	if p.ys != nil {
		seg.Loc.YS = shape.Lit(*p.ys)
	}
	if p.ye != nil {
		seg.Loc.YE = shape.Lit(*p.ye)
	}
	if p.width != nil && *p.width >= 1 {
		seg.Loc.XS = shape.IterCoord(0)
		seg.Loc.XE = shape.IterCoord(*p.width)
	}

	var pat text.EntityValue
	if len(p.pats) > 0 {
		pat = p.pats[0]
	}
	switch pat {
	case text.ValUp:
		seg.Pat = shape.Pattern{Kind: shape.PatUp}
	case text.ValDown:
		seg.Pat = shape.Pattern{Kind: shape.PatDown}
	case text.ValFlat:
		seg.Pat = shape.Pattern{Kind: shape.PatFlat}
	case text.ValPeak, text.ValValley:
		first, second := shape.PatUp, shape.PatDown
		if pat == text.ValValley {
			first, second = shape.PatDown, shape.PatUp
		}
		if p.hasCount {
			// "two peaks": count occurrences of the rising (or falling)
			// flank — quantified simple patterns segment efficiently.
			seg.Pat = shape.Pattern{Kind: first}
		} else {
			seg.Pat = shape.Pattern{
				Kind: shape.PatNested,
				Sub: shape.Concat(
					shape.PatternSeg(first),
					shape.PatternSeg(second),
				),
			}
		}
	}

	// Modifier: quantifier beats sharp/gradual when both appear.
	switch {
	case p.hasCount:
		mod := shape.Modifier{Kind: shape.ModQuantifier}
		switch p.countKind {
		case "atleast":
			mod.Min, mod.HasMin = p.count, true
		case "atmost":
			mod.Max, mod.HasMax = p.count, true
		default:
			mod.Min, mod.Max, mod.HasMin, mod.HasMax = p.count, p.count, true, true
		}
		seg.Mod = mod
	case p.sharp:
		if seg.Pat.Kind == shape.PatDown {
			seg.Mod = shape.Modifier{Kind: shape.ModMuchLess}
		} else {
			seg.Mod = shape.Modifier{Kind: shape.ModMuchMore}
		}
	case p.gradual:
		if seg.Pat.Kind == shape.PatDown {
			seg.Mod = shape.Modifier{Kind: shape.ModLess}
		} else {
			seg.Mod = shape.Modifier{Kind: shape.ModMore}
		}
	}

	if seg.Pat.Kind == shape.PatNone && seg.Loc.IsZero() {
		return nil, fmt.Errorf("nlparser: could not derive a pattern or location for a query step")
	}
	node := shape.Seg(seg)
	if p.negated {
		node = shape.Not(node)
	}
	return node, nil
}
