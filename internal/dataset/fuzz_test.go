package dataset

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// fuzzInput hands out a fuzz input's bytes in order, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// fuzzStrings are the string cells and string filter constants a fuzz
// input can name: the empty string, non-ASCII text, text CSV must quote,
// and text that reads as a number.
var fuzzStrings = [...]string{"a", "b", "c", "", "é", `x,"y`, "NaN", "0"}

// fuzzFloat maps a byte to a float cell: small repeating values, −0, NaN
// and ±Inf.
func fuzzFloat(b byte) float64 {
	switch b {
	case 251:
		return math.NaN()
	case 252:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 254:
		return math.Copysign(0, -1)
	}
	return float64(b%24)/2 - 2
}

// fuzzSpec decodes an extraction spec over fuzzTable's schema: a string or
// float z, an aggregation, up to two filters (one kind per filter column)
// and up to three x windows.
func fuzzSpec(in *fuzzInput, floatZ bool) ExtractSpec {
	spec := ExtractSpec{Z: "zs", X: "x", Y: "y", Agg: Agg(in.next() % 6)}
	if floatZ {
		spec.Z = "zf"
	}
	for n := in.next() % 3; n > 0; n-- {
		sel, v := in.next(), in.next()
		if sel&1 == 0 {
			op := Eq
			if sel&2 != 0 {
				op = Ne
			}
			spec.Filters = append(spec.Filters, Filter{Col: "fs", Op: op, Str: fuzzStrings[v%byte(len(fuzzStrings))]})
		} else {
			spec.Filters = append(spec.Filters, Filter{Col: "fn", Op: FilterOp((sel >> 1) % 6), Num: fuzzFloat(v)})
		}
	}
	for n := in.next() % 4; n > 0; n-- {
		spec.XRanges = append(spec.XRanges, [2]float64{fuzzFloat(in.next()), fuzzFloat(in.next())})
	}
	return spec
}

// fuzzTable decodes five bytes per row into a table with a string and a
// float z, x and y, and a string and a float filter column.
func fuzzTable(rows []byte) *Table {
	n := len(rows) / 5
	zs, fs := make([]string, n), make([]string, n)
	zf, xs, ys, fn := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		r := rows[5*i : 5*i+5]
		zs[i] = fuzzStrings[r[0]%byte(len(fuzzStrings))]
		zf[i] = fuzzFloat(r[0])
		xs[i] = fuzzFloat(r[1])
		ys[i] = fuzzFloat(r[2])
		fs[i] = fuzzStrings[r[3]%byte(len(fuzzStrings))]
		fn[i] = fuzzFloat(r[4])
	}
	tbl, err := New(
		Column{Name: "zs", Type: String, Strings: zs},
		Column{Name: "zf", Type: Float, Floats: zf},
		Column{Name: "x", Type: Float, Floats: xs},
		Column{Name: "y", Type: Float, Floats: ys},
		Column{Name: "fs", Type: String, Strings: fs},
		Column{Name: "fn", Type: Float, Floats: fn},
	)
	if err != nil {
		panic(err)
	}
	return tbl
}

// fuzzIndexSeed encodes a FuzzIndexAppend input: flags (bit 0 float z,
// bit 1 extract before the first append, bits 2–3 the delta count), the
// spec bytes, one cut byte per delta, then five bytes per row.
func fuzzIndexSeed(flags byte, spec, cuts []byte, rows ...[5]byte) []byte {
	b := append(append([]byte{flags}, spec...), cuts...)
	for _, r := range rows {
		b = append(b, r[:]...)
	}
	return b
}

// FuzzIndexAppend checks the incremental append path against the
// row-at-a-time oracle: a base table is indexed, up to three deltas pass
// through WriteCSV, FromCSVSchema and Index.Append, and after every append
// the index's Extract must equal legacyExtract over Concat of the base and
// the decoded deltas, bit for bit or with the same error, and
// ExtractGroups over the delta's z values must return exactly the
// matching series. A flag byte chooses whether the index extracts before
// the first append, so appends extend built encodings and layouts, or
// builds them later over the grown table.
func FuzzIndexAppend(f *testing.F) {
	sorted := [][5]byte{{0, 4, 10, 0, 1}, {0, 6, 12, 1, 2}, {0, 8, 9, 0, 3}, {1, 4, 2, 1, 1}, {1, 6, 5, 0, 2}, {2, 4, 7, 2, 1}}
	// Three string groups laid out series by series, no filters; deltas
	// only after an extraction.
	f.Add(fuzzIndexSeed(0b1010, []byte{1, 0, 0}, []byte{3, 5}, sorted...))
	// Float z with −0, +0, NaN and ±Inf keys, duplicate x under AggNone
	// (an error) and AggSum.
	hostileZ := [][5]byte{{254, 4, 10, 0, 0}, {4, 4, 11, 0, 0}, {251, 5, 3, 1, 1}, {252, 5, 4, 1, 1}, {253, 6, 5, 2, 2}, {4, 4, 12, 3, 3}}
	f.Add(fuzzIndexSeed(0b0111, []byte{0, 0, 0}, []byte{2}, hostileZ...))
	f.Add(fuzzIndexSeed(0b0111, []byte{2, 0, 0}, []byte{2}, hostileZ...))
	// Non-finite x and y, unsorted x across deltas, a NaN window and an
	// inverted one beside a valid window.
	nonFinite := [][5]byte{{0, 20, 251, 0, 0}, {0, 251, 4, 0, 0}, {1, 252, 5, 1, 1}, {1, 2, 252, 1, 1}, {0, 253, 6, 2, 2}, {0, 10, 253, 3, 3}, {1, 3, 9, 0, 4}}
	f.Add(fuzzIndexSeed(0b1110, []byte{1, 0, 3, 251, 10, 20, 2, 2, 20}, []byte{2, 4, 6}, nonFinite...))
	// An empty base, one-point series and an empty group: every delta
	// introduces new groups.
	f.Add(fuzzIndexSeed(0b1100, []byte{3, 0, 0}, []byte{0, 1, 2}, [5]byte{0, 1, 1, 0, 0}, [5]byte{5, 2, 2, 1, 1}, [5]byte{6, 251, 3, 2, 2}))
	// A string filter on an absent value (Ne), a float filter against NaN,
	// and a filter on CSV-quoted text.
	f.Add(fuzzIndexSeed(0b0110, []byte{1, 2, 2, 4, 1, 251, 0}, []byte{3}, sorted...))
	f.Add(fuzzIndexSeed(0b1010, []byte{4, 1, 0, 5, 1, 4, 8}, []byte{2, 4}, [5]byte{5, 4, 1, 5, 5}, [5]byte{5, 3, 2, 5, 5}, [5]byte{7, 2, 3, 4, 6}, [5]byte{3, 1, 4, 3, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		flags := in.next()
		warm := flags&2 != 0
		spec := fuzzSpec(&in, flags&1 != 0)
		cuts := make([]int, 1+int(flags>>2)%4)
		for i := 1; i < len(cuts); i++ {
			cuts[i] = int(in.next())
		}
		rows := []byte(in)
		n := len(rows) / 5
		for i := range cuts {
			cuts[i] %= n + 1
		}
		slices.Sort(cuts)
		cuts = append(cuts, n)

		base := fuzzTable(rows[:5*cuts[1]])
		parts := []*Table{copyTable(base)}
		ix := BuildIndex(base)
		check := func(step int) {
			whole, err := Concat(parts...)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := legacyExtract(whole, spec)
			got, gerr := ix.Extract(spec)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("step %d spec %+v: oracle err %v, index err %v", step, spec, werr, gerr)
			}
			if werr != nil {
				return
			}
			assertSeriesIdentical(t, want, got)
			last := parts[len(parts)-1]
			zvals, err := last.DistinctValues(spec.Z)
			if err != nil {
				t.Fatal(err)
			}
			groups, err := ix.ExtractGroups(spec, zvals)
			if err != nil {
				t.Fatalf("step %d spec %+v: ExtractGroups: %v", step, spec, err)
			}
			var touched []Series
			for _, s := range want {
				if slices.Contains(zvals, s.Z) {
					touched = append(touched, s)
				}
			}
			assertSeriesIdentical(t, touched, groups)
		}
		if warm || len(cuts) == 2 {
			check(0)
		}
		for d := 1; d+1 < len(cuts); d++ {
			var buf bytes.Buffer
			if err := fuzzTable(rows[5*cuts[d] : 5*cuts[d+1]]).WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			delta, err := FromCSVSchema(&buf, ix.Table())
			if err != nil {
				t.Fatalf("delta %d does not read back under its schema: %v", d, err)
			}
			if err := ix.Append(delta); err != nil {
				t.Fatalf("delta %d: append: %v", d, err)
			}
			parts = append(parts, delta)
			check(d)
		}
	})
}
