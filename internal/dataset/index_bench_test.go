package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTable builds a dataset shaped like real candidate-cache-miss
// traffic: many z groups of moderate length plus filterable attributes.
func benchTable(groups, perGroup int) *Table {
	rng := rand.New(rand.NewSource(3))
	rows := groups * perGroup
	zs := make([]string, 0, rows)
	xs := make([]float64, 0, rows)
	ys := make([]float64, 0, rows)
	region := make([]float64, 0, rows)
	sector := make([]string, 0, rows)
	sectors := []string{"tech", "energy", "health", "retail"}
	for g := 0; g < groups; g++ {
		z := fmt.Sprintf("series-%04d", g)
		sec := sectors[g%len(sectors)]
		for i := 0; i < perGroup; i++ {
			zs = append(zs, z)
			xs = append(xs, float64(i))
			ys = append(ys, rng.NormFloat64())
			region = append(region, float64(g%8))
			sector = append(sector, sec)
		}
	}
	tbl, err := New(
		Column{Name: "z", Type: String, Strings: zs},
		Column{Name: "x", Type: Float, Floats: xs},
		Column{Name: "y", Type: Float, Floats: ys},
		Column{Name: "region", Type: Float, Floats: region},
		Column{Name: "sector", Type: String, Strings: sector},
	)
	if err != nil {
		panic(err)
	}
	return tbl
}

// BenchmarkIndexFirstExtract measures one-shot extraction: Extract builds
// a transient index and its (z, x) layout, so this is the full price of
// extracting from a bare table once (New already encoded its string
// columns). Legacy is the row-at-a-time oracle on the same spec. The
// Filtered pair adds a float and a string filter.
func BenchmarkIndexFirstExtract(b *testing.B) {
	tbl := benchTable(500, 100)
	plain := ExtractSpec{Z: "z", X: "x", Y: "y"}
	filtered := ExtractSpec{Z: "z", X: "x", Y: "y", Filters: []Filter{
		{Col: "region", Op: Le, Num: 5},
		{Col: "sector", Op: Ne, Str: "energy"},
	}}
	for _, c := range []struct {
		name    string
		spec    ExtractSpec
		extract func(*Table, ExtractSpec) ([]Series, error)
	}{
		{"Legacy", plain, legacyExtract},
		{"Extract", plain, Extract},
		{"FilteredLegacy", filtered, legacyExtract},
		{"FilteredExtract", filtered, Extract},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.extract(tbl, c.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractDistinctFilters is the cache-miss traffic the index
// targets: repeated queries over one registered dataset whose filters vary
// per query, so the server's exact-spec candidate cache never hits. The
// row-at-a-time oracle re-renders z, re-hashes and re-sorts every group
// per query; the index pays a bitmap sweep and one pass over presorted
// runs.
func BenchmarkExtractDistinctFilters(b *testing.B) {
	tbl := benchTable(500, 100)
	ix := BuildIndex(tbl)
	specAt := func(i int) ExtractSpec {
		return ExtractSpec{
			Z: "z", X: "x", Y: "y",
			Filters: []Filter{
				{Col: "region", Op: Le, Num: float64(i % 8)},
				{Col: "sector", Op: Ne, Str: []string{"tech", "energy", "health", "retail"}[i%4]},
			},
		}
	}
	// Warm the (z, x) layout so the steady state is measured.
	if _, err := ix.Extract(specAt(0)); err != nil {
		b.Fatal(err)
	}
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyExtract(tbl, specAt(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Extract(specAt(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractXRange measures the LOCATION push-down: binary-searched
// run restriction versus the oracle's per-row range test.
func BenchmarkExtractXRange(b *testing.B) {
	tbl := benchTable(500, 100)
	ix := BuildIndex(tbl)
	spec := ExtractSpec{Z: "z", X: "x", Y: "y", XRanges: [][2]float64{{60, 80}}}
	if _, err := ix.Extract(spec); err != nil {
		b.Fatal(err)
	}
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyExtract(tbl, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Extract(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
