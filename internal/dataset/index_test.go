package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// assertSeriesIdentical asserts two extraction results are byte-identical:
// same series, same order, and float values equal bit-for-bit (so -0 vs 0
// or rounding-order differences fail).
func assertSeriesIdentical(t *testing.T, legacy, indexed []Series) {
	t.Helper()
	if len(legacy) != len(indexed) {
		t.Fatalf("series count: legacy %d, indexed %d", len(legacy), len(indexed))
	}
	for i := range legacy {
		l, ix := legacy[i], indexed[i]
		if l.Z != ix.Z {
			t.Fatalf("series %d z: legacy %q, indexed %q", i, l.Z, ix.Z)
		}
		if l.Len() != ix.Len() {
			t.Fatalf("series %d (%q) len: legacy %d, indexed %d", i, l.Z, l.Len(), ix.Len())
		}
		for j := range l.X {
			if math.Float64bits(l.X[j]) != math.Float64bits(ix.X[j]) {
				t.Fatalf("series %q x[%d]: legacy %v, indexed %v", l.Z, j, l.X[j], ix.X[j])
			}
			if math.Float64bits(l.Y[j]) != math.Float64bits(ix.Y[j]) {
				t.Fatalf("series %q y[%d]: legacy %v, indexed %v", l.Z, j, l.Y[j], ix.Y[j])
			}
		}
	}
}

// nonFinite draws NaN, +Inf or −Inf: the values extraction drops.
func nonFinite(rng *rand.Rand) float64 {
	return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
}

// randomTable builds a table with a string z, a float z, an x with
// duplicates and non-finite values, a y with non-finite values, and
// float/string filter columns.
func randomTable(rng *rand.Rand) *Table {
	rows := rng.Intn(120)
	zs := make([]string, rows)
	zf := make([]float64, rows)
	xs := make([]float64, rows)
	ys := make([]float64, rows)
	fnum := make([]float64, rows)
	fstr := make([]string, rows)
	for i := 0; i < rows; i++ {
		zs[i] = fmt.Sprintf("z%02d", rng.Intn(1+rng.Intn(12)))
		zf[i] = float64(rng.Intn(7)) / 2 // collides and renders as "0", "0.5", ...
		// Duplicate-heavy x grid so aggregation paths are exercised.
		xs[i] = float64(rng.Intn(20))
		if rng.Intn(25) == 0 {
			xs[i] = nonFinite(rng)
		}
		ys[i] = rng.NormFloat64() * 10
		if rng.Intn(25) == 0 {
			ys[i] = nonFinite(rng)
		}
		fnum[i] = float64(rng.Intn(10))
		fstr[i] = string(rune('a' + rng.Intn(4)))
	}
	tbl, err := New(
		Column{Name: "zs", Type: String, Strings: zs},
		Column{Name: "zf", Type: Float, Floats: zf},
		Column{Name: "x", Type: Float, Floats: xs},
		Column{Name: "y", Type: Float, Floats: ys},
		Column{Name: "fnum", Type: Float, Floats: fnum},
		Column{Name: "fstr", Type: String, Strings: fstr},
	)
	if err != nil {
		panic(err)
	}
	return tbl
}

// randomSpec draws a spec with random z type, filters, agg and XRanges.
func randomSpec(rng *rand.Rand) ExtractSpec {
	spec := ExtractSpec{Z: "zs", X: "x", Y: "y"}
	if rng.Intn(2) == 0 {
		spec.Z = "zf"
	}
	spec.Agg = Agg(rng.Intn(6)) // includes AggNone, which may error on duplicates
	for n := rng.Intn(4); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			spec.Filters = append(spec.Filters, Filter{
				Col: "fnum", Op: FilterOp(rng.Intn(6)), Num: float64(rng.Intn(10)),
			})
		case 1:
			op := Eq
			if rng.Intn(2) == 0 {
				op = Ne
			}
			// Sometimes a value absent from the column.
			s := string(rune('a' + rng.Intn(6)))
			spec.Filters = append(spec.Filters, Filter{Col: "fstr", Op: op, Str: s})
		case 2:
			spec.Filters = append(spec.Filters, Filter{
				Col: "y", Op: FilterOp(rng.Intn(6)), Num: rng.NormFloat64() * 10,
			})
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		a := float64(rng.Intn(22)) - 1
		b := a + float64(rng.Intn(10)) - 2 // sometimes inverted (empty window)
		spec.XRanges = append(spec.XRanges, [2]float64{a, b})
	}
	return spec
}

// TestIndexedExtractMatchesLegacy is the equivalence property test: for
// random tables and specs (filters, aggs, XRanges, float and string z),
// index-backed extraction returns series identical to the row-at-a-time
// oracle legacyExtract — including which error, if any, is reported.
func TestIndexedExtractMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		tbl := randomTable(rng)
		ix := BuildIndex(tbl)
		for q := 0; q < 4; q++ {
			spec := randomSpec(rng)
			legacy, lerr := legacyExtract(tbl, spec)
			indexed, xerr := ix.Extract(spec)
			if (lerr == nil) != (xerr == nil) {
				t.Fatalf("iter %d spec %+v: legacy err %v, indexed err %v", iter, spec, lerr, xerr)
			}
			if lerr != nil {
				if lerr.Error() != xerr.Error() {
					t.Fatalf("iter %d spec %+v: error mismatch:\nlegacy:  %v\nindexed: %v", iter, spec, lerr, xerr)
				}
				continue
			}
			assertSeriesIdentical(t, legacy, indexed)
		}
	}
}

// TestIndexConcurrentExtract exercises the lazy permutation/encoding builds
// under concurrency (run with -race).
func TestIndexConcurrentExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := randomTable(rng)
	ix := BuildIndex(tbl)
	specs := []ExtractSpec{
		{Z: "zs", X: "x", Y: "y", Agg: AggAvg},
		{Z: "zf", X: "x", Y: "y", Agg: AggSum},
		{Z: "zs", X: "x", Y: "y", Agg: AggAvg, Filters: []Filter{{Col: "fstr", Op: Eq, Str: "a"}}},
		{Z: "zs", X: "x", Y: "y", Agg: AggAvg, XRanges: [][2]float64{{3, 9}}},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				spec := specs[(w+i)%len(specs)]
				legacy, lerr := legacyExtract(tbl, spec)
				indexed, xerr := ix.Extract(spec)
				if lerr != nil || xerr != nil {
					t.Errorf("unexpected error: %v / %v", lerr, xerr)
					return
				}
				if len(legacy) != len(indexed) {
					t.Errorf("series count %d vs %d", len(legacy), len(indexed))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNormalizeRanges pins the window normalization: empty and NaN windows
// drop, overlapping ones merge, disjoint ones sort.
func TestNormalizeRanges(t *testing.T) {
	cases := []struct {
		in, want [][2]float64
	}{
		{nil, nil},
		{[][2]float64{{5, 1}}, [][2]float64{}},
		{[][2]float64{{math.NaN(), 1}}, [][2]float64{}},
		{[][2]float64{{1, 3}, {2, 5}}, [][2]float64{{1, 5}}},
		{[][2]float64{{4, 6}, {1, 2}}, [][2]float64{{1, 2}, {4, 6}}},
		{[][2]float64{{1, 2}, {2, 3}}, [][2]float64{{1, 3}}},
	}
	for _, c := range cases {
		got := normalizeRanges(c.in)
		if len(got) != len(c.want) {
			t.Errorf("normalizeRanges(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("normalizeRanges(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestFilterProgram exercises the vectorized kernels directly: float ops,
// dictionary-coded string ops, absent dictionary values, word-boundary row
// counts, and compile-time validation.
func TestFilterProgram(t *testing.T) {
	const rows = 130 // crosses two word boundaries
	vals := make([]float64, rows)
	strs := make([]string, rows)
	for i := range vals {
		vals[i] = float64(i % 7)
		strs[i] = string(rune('a' + i%3))
	}
	tbl, err := New(
		Column{Name: "v", Type: Float, Floats: vals},
		Column{Name: "s", Type: String, Strings: strs},
	)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(tbl)
	count := func(filters ...Filter) int {
		prog, err := ix.compileFilters(filters)
		if err != nil {
			t.Fatalf("compileFilters(%+v): %v", filters, err)
		}
		sel := prog.run()
		n := 0
		for i := 0; i < rows; i++ {
			if selected(sel, i) {
				n++
			}
		}
		return n
	}
	naive := func(filters ...Filter) int {
		n := 0
	rows:
		for i := 0; i < rows; i++ {
			for _, f := range filters {
				c, _ := tbl.Column(f.Col)
				ok, err := f.matches(c, i)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue rows
				}
			}
			n++
		}
		return n
	}
	cases := [][]Filter{
		{{Col: "v", Op: Eq, Num: 3}},
		{{Col: "v", Op: Ne, Num: 3}},
		{{Col: "v", Op: Lt, Num: 3}},
		{{Col: "v", Op: Le, Num: 3}},
		{{Col: "v", Op: Gt, Num: 3}},
		{{Col: "v", Op: Ge, Num: 3}},
		{{Col: "s", Op: Eq, Str: "b"}},
		{{Col: "s", Op: Ne, Str: "b"}},
		{{Col: "s", Op: Eq, Str: "zebra"}}, // absent from dictionary
		{{Col: "s", Op: Ne, Str: "zebra"}},
		{{Col: "v", Op: Ge, Num: 2}, {Col: "v", Op: Lt, Num: 5}, {Col: "s", Op: Ne, Str: "a"}},
	}
	for _, filters := range cases {
		if got, want := count(filters...), naive(filters...); got != want {
			t.Errorf("filters %+v: kernel count %d, naive %d", filters, got, want)
		}
	}
	// Validation errors surface at compile time.
	if _, err := ix.compileFilters([]Filter{{Col: "s", Op: Gt, Str: "a"}}); err == nil {
		t.Error("Gt on string column should fail to compile")
	}
	if _, err := ix.compileFilters([]Filter{{Col: "ghost", Op: Eq}}); err == nil {
		t.Error("missing column should fail to compile")
	}
	if _, err := ix.compileFilters([]Filter{{Col: "v", Op: FilterOp(99)}}); err == nil {
		t.Error("unknown operator should fail to compile")
	}
	// No filters: nil program selects everything.
	prog, err := ix.compileFilters(nil)
	if err != nil || prog != nil {
		t.Fatalf("empty filter program = %v, %v", prog, err)
	}
	if !selected(nil, 5) {
		t.Error("nil bitmap must select every row")
	}
}

// TestIndexPermMemoized asserts the (z, x) permutation is built once and
// reused across extractions.
func TestIndexPermMemoized(t *testing.T) {
	tbl := sampleTable(t)
	ix := BuildIndex(tbl)
	if _, err := ix.Extract(ExtractSpec{Z: "product", X: "year", Y: "sales"}); err != nil {
		t.Fatal(err)
	}
	p1 := ix.perm(tbl.byName["product"], tbl.byName["year"])
	if _, err := ix.Extract(ExtractSpec{Z: "product", X: "year", Y: "sales",
		Filters: []Filter{{Col: "region", Op: Eq, Num: 1}}}); err != nil {
		t.Fatal(err)
	}
	p2 := ix.perm(tbl.byName["product"], tbl.byName["year"])
	if p1 != p2 {
		t.Error("permutation was rebuilt for a second query over the same (z, x)")
	}
}

// TestIndexLazyEncodings pins what each extraction builds: a new index
// holds no encoding, the first extraction encodes its z column, a float
// filter encodes nothing, and a string filter encodes its own column. No
// extraction writes to the table.
func TestIndexLazyEncodings(t *testing.T) {
	tbl, err := New(
		strCol("z", "b", "b", "a", "a", "c"),
		floatCol("x", 1, 2, 1, 2, 1),
		floatCol("y", 5, 6, 7, 8, 9),
		floatCol("f", 0, 1, 0, 1, 0),
		strCol("s", "p", "q", "p", "q", "p"),
		floatCol("zf", 3, 3, 4, 4, 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	before := copyTable(tbl)
	ix := BuildIndex(tbl)
	built := func() []string {
		var names []string
		for ci := range ix.enc {
			if ix.enc[ci].enc != nil {
				names = append(names, tbl.cols[ci].Name)
			}
		}
		return names
	}
	steps := []struct {
		spec ExtractSpec
		want []string
	}{
		{ExtractSpec{}, nil}, // a new index: nothing built yet
		{ExtractSpec{Z: "z", X: "x", Y: "y"}, []string{"z"}},
		{ExtractSpec{Z: "z", X: "x", Y: "y", Filters: []Filter{{Col: "f", Op: Lt, Num: 1}}}, []string{"z"}},
		{ExtractSpec{Z: "z", X: "x", Y: "y", Filters: []Filter{{Col: "s", Op: Eq, Str: "p"}}}, []string{"z", "s"}},
		{ExtractSpec{Z: "zf", X: "x", Y: "y"}, []string{"z", "s", "zf"}},
	}
	for i, st := range steps {
		if i > 0 {
			got, err := ix.Extract(st.spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyExtract(tbl, st.spec)
			if err != nil {
				t.Fatal(err)
			}
			assertSeriesIdentical(t, want, got)
		}
		if got := built(); !slices.Equal(got, st.want) {
			t.Errorf("step %d (%+v): built encodings %v, want %v", i, st.spec, got, st.want)
		}
	}
	for ci, c := range tbl.cols {
		b := before.cols[ci]
		if c.Len() != b.Len() || !slices.Equal(c.Strings, b.Strings) || !slices.Equal(c.Floats, b.Floats) {
			t.Fatalf("column %q changed under extraction: %+v, was %+v", c.Name, c, b)
		}
	}
}
