// Package dataset implements ShapeSearch's OLAP data substrate (Section 5.1
// of the paper): an in-memory columnar table loaded from CSV or JSON, filter
// predicates, and the EXTRACT step that selects, aggregates and sorts
// records into candidate trendline series according to the visual
// parameters z, x and y.
//
// EXTRACT has one physical implementation, the columnar *Index built by
// BuildIndex: dictionary-encoded grouping and filter columns, memoized
// per-group (z, x) row layouts, and vectorized filter kernels over a
// selection bitmap, each built on first use. A bare *Table extracts through
// a transient Index; serving layers keep one Index per registered table, so
// what the first search builds serves the rest.
package dataset

import (
	"fmt"
	"math"
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
	e := encodeColumn(c)
	out := make([]string, len(e.order))
	for i, code := range e.order {
		out[i] = e.dict[code]
	}
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

// ParseAgg parses an aggregation name as String renders it; the empty name
// is AggNone.
func ParseAgg(name string) (Agg, error) {
	if name == "" {
		return AggNone, nil
	}
	for a := AggNone; a <= AggCount; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return AggNone, fmt.Errorf("unknown aggregation %q", name)
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
// from every series before aggregation.
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

// Source is anything the EXTRACT operator can run against: a bare *Table,
// which extracts through a transient Index on every call, or a long-lived
// *Index, which keeps the encodings and layouts its extractions build.
// Both produce identical Series for identical specs.
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

// Extract runs EXTRACT over the table through a transient Index; it is the
// method form of the package-level Extract.
func (t *Table) Extract(spec ExtractSpec) ([]Series, error) { return Extract(t, spec) }

// resolveSpec resolves and validates the z/x/y attributes of a spec against
// a table.
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

// Extract runs EXTRACT over a bare table through a transient Index (see
// BuildIndex and Index.Extract). The transient index encodes only the z
// column and the string columns the spec filters on, and writes nothing
// to t.
func Extract(t *Table, spec ExtractSpec) ([]Series, error) { return BuildIndex(t).Extract(spec) }

type point struct{ x, y float64 }

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
// windows: the LOCATION push-down's range test, which the executor's GROUP
// skip mask applies per point. EXTRACT applies the same windows by binary
// search (see normalizeRanges).
func InRanges(x float64, ranges [][2]float64) bool {
	for _, r := range ranges {
		if x >= r[0] && x <= r[1] {
			return true
		}
	}
	return false
}
