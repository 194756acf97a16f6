// Package dataset implements ShapeSearch's OLAP data substrate (Section 5.1
// of the paper): an in-memory columnar table loaded from CSV or JSON, filter
// predicates, and the EXTRACT step that selects, aggregates and sorts
// records into candidate trendline series according to the visual
// parameters z, x and y.
//
// EXTRACT has two physical implementations behind the Source interface: the
// legacy row-at-a-time scan over a bare *Table (package-level Extract), and
// the columnar *Index built by BuildIndex — dictionary-encoded grouping
// keys, memoized (z, x) sort permutations walked as contiguous z-runs, and
// vectorized filter kernels over a selection bitmap. Both produce identical
// Series; serving layers index tables once at registration and extract
// through the index.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// ColumnType is the type of a column's values.
type ColumnType int

const (
	// Float columns hold numeric values.
	Float ColumnType = iota
	// String columns hold categorical values.
	String
)

// Column is one named, typed column. Exactly one of Floats or Strings is
// populated, matching Type.
type Column struct {
	Name    string
	Type    ColumnType
	Floats  []float64
	Strings []string
}

// Len reports the number of values in the column.
func (c *Column) Len() int {
	if c.Type == Float {
		return len(c.Floats)
	}
	return len(c.Strings)
}

// ValueString renders row i as a string (used for z grouping keys).
func (c *Column) ValueString(i int) string {
	if c.Type == Float {
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	}
	return c.Strings[i]
}

// Table is an immutable in-memory columnar table.
type Table struct {
	cols   []Column
	byName map[string]int
	rows   int
}

// New builds a table from columns. All columns must share one length.
func New(cols ...Column) (*Table, error) {
	t := &Table{byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("dataset: column %d has no name", i)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate column %q", c.Name)
		}
		if i > 0 && c.Len() != t.rows {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", c.Name, c.Len(), t.rows)
		}
		if i == 0 {
			t.rows = c.Len()
		}
		t.byName[c.Name] = i
		t.cols = append(t.cols, c)
	}
	return t, nil
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumCols reports the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// ColumnNames lists column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i := range t.cols {
		names[i] = t.cols[i].Name
	}
	return names
}

// Column returns a column by name.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no column %q", name)
	}
	return &t.cols[i], nil
}

// DistinctValues returns the sorted distinct rendered values of the named
// column — the grouping keys it would contribute as a z attribute. The
// incremental append path uses it to learn which z groups a delta batch
// touches.
func (t *Table) DistinctValues(name string) ([]string, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, 16)
	out := make([]string, 0, 16)
	for i := 0; i < c.Len(); i++ {
		v := c.ValueString(i)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Strings(out)
	return out, nil
}

// FilterOp is a comparison operator in a filter predicate.
type FilterOp int

const (
	// Eq tests equality.
	Eq FilterOp = iota
	// Ne tests inequality.
	Ne
	// Lt tests strictly-less-than (numeric columns only).
	Lt
	// Le tests less-or-equal (numeric columns only).
	Le
	// Gt tests strictly-greater-than (numeric columns only).
	Gt
	// Ge tests greater-or-equal (numeric columns only).
	Ge
)

// String renders the operator.
func (op FilterOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// Filter is one predicate on a column. Filters on a query are conjunctive:
// a row survives when every filter accepts it. For Float columns Num is
// compared; for String columns only Eq and Ne apply, against Str.
type Filter struct {
	Col string
	Op  FilterOp
	Num float64
	Str string
}

// matches evaluates the filter on row i of column c.
func (f Filter) matches(c *Column, i int) (bool, error) {
	if c.Type == String {
		switch f.Op {
		case Eq:
			return c.Strings[i] == f.Str, nil
		case Ne:
			return c.Strings[i] != f.Str, nil
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

// Agg is the aggregation applied when multiple y values share one (z, x)
// coordinate (for example the Real Estate dataset of the paper's
// evaluation).
type Agg int

const (
	// AggNone keeps duplicate points (they are averaged implicitly by the
	// fit, but GROUP-level binning expects one point per x, so extraction
	// with duplicates and AggNone reports an error).
	AggNone Agg = iota
	// AggAvg averages duplicate y values (the paper's default).
	AggAvg
	// AggSum sums duplicates.
	AggSum
	// AggMin keeps the minimum.
	AggMin
	// AggMax keeps the maximum.
	AggMax
	// AggCount counts duplicates, ignoring their values.
	AggCount
)

// String names the aggregation.
func (a Agg) String() string {
	switch a {
	case AggNone:
		return "none"
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	default:
		return "?"
	}
}

// Series is one candidate visualization: the trendline of a single z value,
// sorted by x.
type Series struct {
	Z string
	X []float64
	Y []float64
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.X) }

// ExtractSpec is the input to Extract: the visual parameters R of the paper
// (z, x, y attributes), filters f, and aggregation a.
//
// Non-finite values: a row whose x or y is NaN, +Inf or −Inf is dropped
// from every series, by both Source implementations, before aggregation.
// Tables still store such values (a CSV with "Inf" loads), but no series
// carries one, so no score, bound or reply downstream sees one.
type ExtractSpec struct {
	Z, X, Y string
	Filters []Filter
	Agg     Agg
	// XRanges optionally restricts extraction to x values inside any of the
	// given [start, end] windows — the LOCATION push-down of Section 5.4.
	// Empty means the full domain.
	XRanges [][2]float64
}

// Source is anything the EXTRACT operator can run against: a bare *Table
// (the legacy row-at-a-time path) or an *Index (the columnar path with
// dictionary-encoded grouping and vectorized filters). Both produce
// identical Series for identical specs.
type Source interface {
	// Table returns the underlying columnar table (for metadata access).
	Table() *Table
	// Extract selects and aggregates records into one Series per distinct
	// z value, sorted on z then x.
	Extract(spec ExtractSpec) ([]Series, error)
}

// finite reports whether v is neither NaN nor ±Inf: the values a series
// may carry (see ExtractSpec).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Table returns the table itself, making *Table a Source.
func (t *Table) Table() *Table { return t }

// Extract runs the legacy row-at-a-time EXTRACT over the table; it is the
// method form of the package-level Extract.
func (t *Table) Extract(spec ExtractSpec) ([]Series, error) { return Extract(t, spec) }

// resolveSpec resolves and validates the z/x/y attributes of a spec against
// a table; both extraction paths share its checks and error messages.
func resolveSpec(t *Table, spec ExtractSpec) (zc, xc, yc *Column, err error) {
	zc, err = t.Column(spec.Z)
	if err != nil {
		return nil, nil, nil, err
	}
	xc, err = t.Column(spec.X)
	if err != nil {
		return nil, nil, nil, err
	}
	if xc.Type != Float {
		return nil, nil, nil, fmt.Errorf("dataset: x attribute %q must be numeric", spec.X)
	}
	yc, err = t.Column(spec.Y)
	if err != nil {
		return nil, nil, nil, err
	}
	if yc.Type != Float {
		return nil, nil, nil, fmt.Errorf("dataset: y attribute %q must be numeric", spec.Y)
	}
	return zc, xc, yc, nil
}

// Extract selects and aggregates records into one Series per distinct z
// value, sorted on z then x (the EXTRACT physical operator, Section 5.3).
func Extract(t *Table, spec ExtractSpec) ([]Series, error) {
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
		// sums duplicates in the same order as the index-backed path,
		// keeping the two extraction paths float-bit-identical.
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
		s := Series{Z: z, X: make([]float64, 0, len(pts)), Y: make([]float64, 0, len(pts))}
		for i := 0; i < len(pts); {
			j := i
			for j < len(pts) && pts[j].x == pts[i].x {
				j++
			}
			if j-i > 1 && spec.Agg == AggNone {
				return nil, duplicateErr(spec, z, pts[i].x)
			}
			s.X = append(s.X, pts[i].x)
			s.Y = append(s.Y, aggregate(pts[i:j], spec.Agg))
			i = j
		}
		series = append(series, s)
	}
	return series, nil
}

type point struct{ x, y float64 }

// duplicateErr is the shared AggNone-with-duplicates error of both
// extraction paths.
func duplicateErr(spec ExtractSpec, z string, x float64) error {
	return fmt.Errorf("dataset: multiple y values at %s=%q, %s=%v; specify an aggregation",
		spec.Z, z, spec.X, x)
}

func aggregate(pts []point, a Agg) float64 {
	switch a {
	case AggCount:
		return float64(len(pts))
	case AggSum:
		var sum float64
		for _, p := range pts {
			sum += p.y
		}
		return sum
	case AggMin:
		min := pts[0].y
		for _, p := range pts[1:] {
			if p.y < min {
				min = p.y
			}
		}
		return min
	case AggMax:
		max := pts[0].y
		for _, p := range pts[1:] {
			if p.y > max {
				max = p.y
			}
		}
		return max
	default: // AggAvg and AggNone (single point)
		var sum float64
		for _, p := range pts {
			sum += p.y
		}
		return sum / float64(len(pts))
	}
}

// InRanges reports whether x falls inside any of the inclusive [start, end]
// windows. It is the one shared range test for the LOCATION push-down: the
// EXTRACT row filter and the executor's GROUP skip-mask both use it.
func InRanges(x float64, ranges [][2]float64) bool {
	for _, r := range ranges {
		if x >= r[0] && x <= r[1] {
			return true
		}
	}
	return false
}
