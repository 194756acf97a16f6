package dataset

import (
	"fmt"
	"sort"
)

// legacyExtract is the row-at-a-time EXTRACT: the reference every
// index-against-row test compares Index.Extract with. It shares no code
// with the index beyond attribute resolution and the aggregation helper:
// it checks each row's filters one at a time, renders z per row, groups
// through a hash map, and sorts group names and each group's points per
// call.
func legacyExtract(t *Table, spec ExtractSpec) ([]Series, error) {
	zc, xc, yc, err := resolveSpec(t, spec)
	if err != nil {
		return nil, err
	}
	fcols := make([]*Column, len(spec.Filters))
	for i, f := range spec.Filters {
		fc, err := t.Column(f.Col)
		if err != nil {
			return nil, err
		}
		fcols[i] = fc
	}

	groups := make(map[string][]point)
	var order []string

rows:
	for i := 0; i < t.rows; i++ {
		for j, f := range spec.Filters {
			ok, err := f.matches(fcols[j], i)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		x := xc.Floats[i]
		if len(spec.XRanges) > 0 && !InRanges(x, spec.XRanges) {
			continue
		}
		y := yc.Floats[i]
		if !finite(x) || !finite(y) {
			continue
		}
		z := zc.ValueString(i)
		if _, seen := groups[z]; !seen {
			order = append(order, z)
		}
		groups[z] = append(groups[z], point{x, y})
	}
	sort.Strings(order)

	series := make([]Series, 0, len(order))
	for _, z := range order {
		pts := groups[z]
		// Stable, so duplicate-x points keep row order: aggregation then
		// sums duplicates in the same order as the index, keeping the two
		// float-bit-identical.
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
		s := Series{Z: z, X: make([]float64, 0, len(pts)), Y: make([]float64, 0, len(pts))}
		for i := 0; i < len(pts); {
			j := i
			for j < len(pts) && pts[j].x == pts[i].x {
				j++
			}
			if j-i > 1 && spec.Agg == AggNone {
				return nil, fmt.Errorf("dataset: multiple y values at %s=%q, %s=%v; specify an aggregation",
					spec.Z, z, spec.X, pts[i].x)
			}
			s.X = append(s.X, pts[i].x)
			s.Y = append(s.Y, aggregate(pts[i:j], spec.Agg))
			i = j
		}
		series = append(series, s)
	}
	return series, nil
}

// matches evaluates the filter on row i of column c. Unlike the index,
// which validates a conjunction before scanning, it reports an invalid
// operator only when a row reaches it.
func (f Filter) matches(c *Column, i int) (bool, error) {
	if c.Type == String {
		switch f.Op {
		case Eq:
			return c.ValueString(i) == f.Str, nil
		case Ne:
			return c.ValueString(i) != f.Str, nil
		default:
			return false, fmt.Errorf("dataset: operator %s not supported on string column %q", f.Op, f.Col)
		}
	}
	v := c.Floats[i]
	switch f.Op {
	case Eq:
		return v == f.Num, nil
	case Ne:
		return v != f.Num, nil
	case Lt:
		return v < f.Num, nil
	case Le:
		return v <= f.Num, nil
	case Gt:
		return v > f.Num, nil
	case Ge:
		return v >= f.Num, nil
	default:
		return false, fmt.Errorf("dataset: unknown operator %d", int(f.Op))
	}
}
