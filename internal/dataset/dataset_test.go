package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func floatCol(name string, vals ...float64) Column {
	return Column{Name: name, Type: Float, Floats: vals}
}

func strCol(name string, vals ...string) Column {
	return Column{Name: name, Type: String, Strings: vals}
}

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(
		strCol("product", "a", "a", "a", "b", "b", "b", "c", "c", "c"),
		floatCol("year", 1, 2, 3, 1, 2, 3, 1, 2, 3),
		floatCol("sales", 10, 20, 30, 30, 20, 10, 5, 5, 5),
		floatCol("region", 1, 1, 1, 2, 2, 2, 1, 1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(floatCol("", 1)); err == nil {
		t.Error("empty column name should error")
	}
	if _, err := New(floatCol("a", 1), floatCol("a", 2)); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := New(floatCol("a", 1, 2), floatCol("b", 1)); err == nil {
		t.Error("ragged columns should error")
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 9 || tbl.NumCols() != 4 {
		t.Fatalf("dims = %d x %d", tbl.NumRows(), tbl.NumCols())
	}
	c, err := tbl.Column("sales")
	if err != nil || c.Type != Float {
		t.Fatalf("Column(sales): %v", err)
	}
	if _, err := tbl.Column("nope"); err == nil {
		t.Error("missing column should error")
	}
	names := tbl.ColumnNames()
	if len(names) != 4 || names[0] != "product" {
		t.Errorf("names = %v", names)
	}
}

func TestExtractBasic(t *testing.T) {
	tbl := sampleTable(t)
	series, err := Extract(tbl, ExtractSpec{Z: "product", X: "year", Y: "sales"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	// Sorted by z.
	if series[0].Z != "a" || series[1].Z != "b" || series[2].Z != "c" {
		t.Fatalf("z order = %v %v %v", series[0].Z, series[1].Z, series[2].Z)
	}
	a := series[0]
	if a.Len() != 3 || a.X[0] != 1 || a.Y[2] != 30 {
		t.Fatalf("series a = %+v", a)
	}
}

func TestExtractFilters(t *testing.T) {
	tbl := sampleTable(t)
	series, err := Extract(tbl, ExtractSpec{
		Z: "product", X: "year", Y: "sales",
		Filters: []Filter{{Col: "region", Op: Eq, Num: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Z != "b" {
		t.Fatalf("series = %+v", series)
	}
	// Range filter.
	series, err = Extract(tbl, ExtractSpec{
		Z: "product", X: "year", Y: "sales",
		Filters: []Filter{
			{Col: "sales", Op: Gt, Num: 4},
			{Col: "sales", Op: Lt, Num: 11},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// a keeps year 1, b keeps year 3, c keeps all.
	if len(series) != 3 || series[0].Len() != 1 || series[2].Len() != 3 {
		t.Fatalf("series = %+v", series)
	}
	// String filter.
	series, err = Extract(tbl, ExtractSpec{
		Z: "product", X: "year", Y: "sales",
		Filters: []Filter{{Col: "product", Op: Ne, Str: "a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	// Bad operator on string column.
	if _, err := Extract(tbl, ExtractSpec{
		Z: "product", X: "year", Y: "sales",
		Filters: []Filter{{Col: "product", Op: Lt, Str: "a"}},
	}); err == nil {
		t.Error("Lt on string column should error")
	}
}

func TestExtractXRangePushdown(t *testing.T) {
	tbl := sampleTable(t)
	series, err := Extract(tbl, ExtractSpec{
		Z: "product", X: "year", Y: "sales",
		XRanges: [][2]float64{{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Len() != 2 || s.X[0] != 2 {
			t.Fatalf("pushdown failed: %+v", s)
		}
	}
}

func TestExtractAggregation(t *testing.T) {
	tbl, err := New(
		strCol("city", "x", "x", "x", "x"),
		floatCol("month", 1, 1, 2, 2),
		floatCol("price", 10, 20, 5, 15),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates without aggregation: error.
	if _, err := Extract(tbl, ExtractSpec{Z: "city", X: "month", Y: "price"}); err == nil {
		t.Fatal("duplicates without agg should error")
	}
	cases := []struct {
		agg  Agg
		want [2]float64
	}{
		{AggAvg, [2]float64{15, 10}},
		{AggSum, [2]float64{30, 20}},
		{AggMin, [2]float64{10, 5}},
		{AggMax, [2]float64{20, 15}},
		{AggCount, [2]float64{2, 2}},
	}
	for _, c := range cases {
		series, err := Extract(tbl, ExtractSpec{Z: "city", X: "month", Y: "price", Agg: c.agg})
		if err != nil {
			t.Fatalf("%v: %v", c.agg, err)
		}
		got := [2]float64{series[0].Y[0], series[0].Y[1]}
		if got != c.want {
			t.Errorf("%v: got %v, want %v", c.agg, got, c.want)
		}
	}
}

func TestExtractNumericZ(t *testing.T) {
	tbl, err := New(
		floatCol("id", 1, 1, 2, 2),
		floatCol("t", 0, 1, 0, 1),
		floatCol("v", 5, 6, 7, 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	series, err := Extract(tbl, ExtractSpec{Z: "id", X: "t", Y: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Z != "1" {
		t.Fatalf("series = %+v", series)
	}
}

// TestExtractSkipsNaN: rows whose x or y is NaN or ±Inf are dropped, by
// the row path and by the index alike.
func TestExtractSkipsNaN(t *testing.T) {
	inf := math.Inf(1)
	tbl, err := New(
		strCol("z", "a", "a", "a", "a", "a", "a", "a"),
		floatCol("x", 1, 2, 3, 4, 5, inf, -inf),
		floatCol("y", 1, math.NaN(), 3, inf, -inf, 6, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{tbl, BuildIndex(tbl)} {
		series, err := src.Extract(ExtractSpec{Z: "z", X: "x", Y: "y"})
		if err != nil {
			t.Fatal(err)
		}
		if s := series[0]; s.Len() != 2 || s.X[0] != 1 || s.X[1] != 3 {
			t.Fatalf("%T: non-finite rows should be dropped: %+v", src, s)
		}
	}
}

// extractErrorCases are EXTRACT's validation errors over extractErrorTable.
// TestExtractErrors runs each through a transient index (Extract) and
// TestIndexedExtractErrors through a warmed long-lived one.
var extractErrorCases = []struct {
	name string
	spec ExtractSpec
}{
	{"missing z", ExtractSpec{Z: "nope", X: "year", Y: "sales"}},
	{"string x", ExtractSpec{Z: "product", X: "product", Y: "sales"}},
	{"string y", ExtractSpec{Z: "product", X: "year", Y: "product"}},
	{"missing filter column", ExtractSpec{Z: "product", X: "year", Y: "sales",
		Filters: []Filter{{Col: "ghost", Op: Eq}}}},
	{"Lt on a string column", ExtractSpec{Z: "product", X: "year", Y: "sales",
		Filters: []Filter{{Col: "store", Op: Lt, Str: "n"}}}},
}

func extractErrorTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(
		strCol("product", "a", "a", "b", "b"),
		strCol("store", "n", "s", "n", "s"),
		floatCol("year", 1, 2, 1, 2),
		floatCol("sales", 10, 20, 30, 40),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestExtractErrors pins EXTRACT's validation errors on a transient index.
func TestExtractErrors(t *testing.T) {
	tbl := extractErrorTable(t)
	for _, c := range extractErrorCases {
		if _, err := Extract(tbl, c.spec); err == nil {
			t.Errorf("Extract: %s should error", c.name)
		}
	}
}

// TestIndexedExtractErrors runs the same cases on one long-lived index after
// a successful string-filtered extraction built its (z, x) layout: an error
// must not depend on what an earlier extraction built.
func TestIndexedExtractErrors(t *testing.T) {
	tbl := extractErrorTable(t)
	ix := BuildIndex(tbl)
	warm := ExtractSpec{Z: "product", X: "year", Y: "sales", Filters: []Filter{{Col: "store", Op: Eq, Str: "n"}}}
	if series, err := ix.Extract(warm); err != nil || len(series) != 2 {
		t.Fatalf("warm-up extraction: %d series, error %v", len(series), err)
	}
	if lp := ix.perms[permKey{tbl.byName["product"], tbl.byName["year"]}]; lp == nil || lp.p == nil {
		t.Fatal("the warm-up extraction built no (product, year) layout")
	}
	for _, c := range extractErrorCases {
		if _, err := ix.Extract(c.spec); err == nil {
			t.Errorf("long-lived index: %s should error", c.name)
		}
	}
}

const csvSample = `city,month,temp,note
nyc,1,30.5,cold
nyc,2,35,mild
sf,1,50,mild
sf,2,,missing
`

func TestFromCSV(t *testing.T) {
	tbl, err := FromCSV(strings.NewReader(csvSample))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 || tbl.NumCols() != 4 {
		t.Fatalf("dims = %d x %d", tbl.NumRows(), tbl.NumCols())
	}
	c, _ := tbl.Column("temp")
	if c.Type != Float {
		t.Fatal("temp should infer Float")
	}
	if !math.IsNaN(c.Floats[3]) {
		t.Fatal("empty numeric cell should be NaN")
	}
	n, _ := tbl.Column("note")
	if n.Type != String || n.ValueString(0) != "cold" {
		t.Fatal("note should infer String")
	}
	if _, err := FromCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := FromCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() || back.NumCols() != tbl.NumCols() {
		t.Fatalf("round trip dims = %d x %d", back.NumRows(), back.NumCols())
	}
	s1, _ := Extract(tbl, ExtractSpec{Z: "product", X: "year", Y: "sales"})
	s2, _ := Extract(back, ExtractSpec{Z: "product", X: "year", Y: "sales"})
	for i := range s1 {
		if s1[i].Z != s2[i].Z || s1[i].Len() != s2[i].Len() {
			t.Fatal("round trip series mismatch")
		}
		for j := range s1[i].Y {
			if s1[i].Y[j] != s2[i].Y[j] {
				t.Fatal("round trip values mismatch")
			}
		}
	}
}

const jsonSample = `[
  {"gene": "gbx2", "hour": 0, "expr": 1.5},
  {"gene": "gbx2", "hour": 1, "expr": 2.5},
  {"gene": "klf5", "hour": 0, "expr": 0.5},
  {"gene": "klf5", "hour": 1, "expr": 1.0}
]`

func TestFromJSON(t *testing.T) {
	tbl, err := FromJSON(strings.NewReader(jsonSample))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 || tbl.NumCols() != 3 {
		t.Fatalf("dims = %d x %d", tbl.NumRows(), tbl.NumCols())
	}
	g, err := tbl.Column("gene")
	if err != nil || g.Type != String {
		t.Fatalf("gene column: %v", err)
	}
	e, err := tbl.Column("expr")
	if err != nil || e.Type != Float {
		t.Fatalf("expr column: %v", err)
	}
	series, err := Extract(tbl, ExtractSpec{Z: "gene", X: "hour", Y: "expr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Z != "gbx2" {
		t.Fatalf("series = %+v", series)
	}
	if _, err := FromJSON(strings.NewReader("[]")); err == nil {
		t.Error("empty JSON should error")
	}
	if _, err := FromJSON(strings.NewReader("{}")); err == nil {
		t.Error("non-array JSON should error")
	}
}

func TestFromJSONMixedTypes(t *testing.T) {
	// A key that is numeric in one row and string in another degrades to a
	// String column.
	in := `[{"a": 1, "b": 2}, {"a": "x", "b": 3}]`
	tbl, err := FromJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tbl.Column("a")
	if a.Type != String || a.ValueString(0) != "1" {
		t.Fatalf("a = %+v", a)
	}
	b, _ := tbl.Column("b")
	if b.Type != Float {
		t.Fatal("b should stay Float")
	}
}

func TestOpenCSVMissing(t *testing.T) {
	if _, err := OpenCSV("/nonexistent/file.csv"); err == nil {
		t.Error("missing file should error")
	}
}

// TestParseAgg: every aggregation round-trips through String and ParseAgg,
// the names "" and "none" are AggNone, and an unknown name is an error.
func TestParseAgg(t *testing.T) {
	for a := AggNone; a <= AggCount; a++ {
		if got, err := ParseAgg(a.String()); err != nil || got != a {
			t.Errorf("ParseAgg(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, name := range []string{"", "none"} {
		if got, err := ParseAgg(name); err != nil || got != AggNone {
			t.Errorf("ParseAgg(%q) = %v, %v; want none", name, got, err)
		}
	}
	if _, err := ParseAgg("median"); err == nil {
		t.Error("ParseAgg(median) should fail")
	}
}
