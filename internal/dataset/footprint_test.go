package dataset_test

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
)

// TestTableFootprint pins the live heap of a corpus-shaped table, 10,000
// DriftPeaks series of 32 points laid out as z, x, y rows, after a GC.
// Loaded through FromCSV it may hold at most 8 MB, and built with New at
// most 7.5 MB: one code per row and one copy of each distinct z value,
// beside the x and y columns' 5.12 MB. When the table kept a string per
// row, the two read 23.0 and 10.3 MB: a CSV-loaded z value kept its whole
// line alive.
func TestTableFootprint(t *testing.T) {
	ss := gen.DriftPeaksSeries(10_000, 32, 64, 1)
	var csv []byte
	csv = append(csv, "z,x,y\n"...)
	for _, s := range ss {
		for i := range s.X {
			csv = append(csv, s.Z...)
			csv = append(csv, ',')
			csv = strconv.AppendFloat(csv, s.X[i], 'g', -1, 64)
			csv = append(csv, ',')
			csv = strconv.AppendFloat(csv, s.Y[i], 'g', -1, 64)
			csv = append(csv, '\n')
		}
	}
	cases := []struct {
		name   string
		budget float64 // MB
		build  func() (*dataset.Table, error)
	}{
		{"FromCSV", 8, func() (*dataset.Table, error) { return dataset.FromCSV(bytes.NewReader(csv)) }},
		{"New", 7.5, func() (*dataset.Table, error) {
			n := len(ss) * len(ss[0].X)
			zs, xs, ys := make([]string, 0, n), make([]float64, 0, n), make([]float64, 0, n)
			for _, s := range ss {
				for i := range s.X {
					zs = append(zs, s.Z)
					xs = append(xs, s.X[i])
					ys = append(ys, s.Y[i])
				}
			}
			return dataset.New(
				dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
				dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
				dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
			)
		}},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tbl, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		live := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6
		runtime.KeepAlive(tbl)
		if tbl.NumRows() != 320_000 {
			t.Fatalf("%s: %d rows, want 320,000", c.name, tbl.NumRows())
		}
		t.Logf("%s: %.2f MB of live heap", c.name, live)
		if live > c.budget {
			t.Errorf("%s: the corpus table holds %.2f MB of live heap, budget %.1f MB", c.name, live, c.budget)
		}
	}
	runtime.KeepAlive(ss)
	runtime.KeepAlive(csv)
}
