package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// randomDelta draws an append batch over randomTable's schema: z values
// overlap the base's range but reach past it (new groups get fresh
// dictionary codes), x values land anywhere on the grid (out-of-order
// arrivals relative to the base), and NaN and ±Inf appear in both x and y.
func randomDelta(rng *rand.Rand, rows int) *Table {
	zs := make([]string, rows)
	zf := make([]float64, rows)
	xs := make([]float64, rows)
	ys := make([]float64, rows)
	fnum := make([]float64, rows)
	fstr := make([]string, rows)
	for i := 0; i < rows; i++ {
		zs[i] = fmt.Sprintf("z%02d", rng.Intn(15)) // may introduce new groups
		zf[i] = float64(rng.Intn(9)) / 2
		xs[i] = float64(rng.Intn(24))
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

// inOrderDelta draws an append batch whose x values strictly extend the
// base grid — the pure-extend streaming case of zxPerm.extend.
func inOrderDelta(rng *rand.Rand, rows int, xBase float64) *Table {
	d := randomDelta(rng, rows)
	for i := range d.cols[2].Floats {
		if finite(d.cols[2].Floats[i]) {
			d.cols[2].Floats[i] = xBase + float64(i)
		}
	}
	return d
}

// copyTable deep-copies a table so a rebuilt index cannot share (or be
// perturbed by) the in-place growth of the appended one.
func copyTable(t *Table) *Table {
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = Column{Name: c.Name, Type: c.Type}
		if c.Type == Float {
			cols[i].Floats = append([]float64(nil), c.Floats...)
		} else {
			cols[i].Strings = append([]string(nil), c.Strings...)
		}
	}
	nt, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return nt
}

// TestIndexAppendMatchesRebuild is the incremental-maintenance equivalence
// property: after any sequence of appends — in-order and out-of-order x,
// new z values, NaNs — extraction through the incrementally maintained
// index is bit-identical (same errors included) to both a fresh BuildIndex
// of the concatenated table and the row-at-a-time oracle over it. Specs run
// BEFORE the appends too, so extended (not freshly built) encodings and
// layouts are what the comparison exercises.
func TestIndexAppendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 120; iter++ {
		tbl := randomTable(rng)
		ix := BuildIndex(tbl)
		// Touch a few specs up front to force lazy builds that the appends
		// must then maintain incrementally.
		warm := make([]ExtractSpec, 0, 3)
		for q := 0; q < 3; q++ {
			spec := randomSpec(rng)
			warm = append(warm, spec)
			_, _ = ix.Extract(spec)
		}
		for step := 0; step < 3; step++ {
			var delta *Table
			if rng.Intn(2) == 0 {
				delta = inOrderDelta(rng, 1+rng.Intn(30), 20+float64(step))
			} else {
				delta = randomDelta(rng, 1+rng.Intn(30))
			}
			if err := ix.Append(delta); err != nil {
				t.Fatalf("iter %d step %d: append: %v", iter, step, err)
			}
			fresh := copyTable(ix.Table())
			freshIx := BuildIndex(fresh)
			specs := append(append([]ExtractSpec(nil), warm...), randomSpec(rng))
			for si, spec := range specs {
				legacy, lerr := legacyExtract(fresh, spec)
				appended, aerr := ix.Extract(spec)
				rebuilt, rerr := freshIx.Extract(spec)
				if (lerr == nil) != (aerr == nil) || (lerr == nil) != (rerr == nil) {
					t.Fatalf("iter %d step %d spec %d: errors legacy=%v appended=%v rebuilt=%v",
						iter, step, si, lerr, aerr, rerr)
				}
				if lerr != nil {
					if lerr.Error() != aerr.Error() {
						t.Fatalf("iter %d step %d spec %d: error mismatch:\nlegacy:   %v\nappended: %v",
							iter, step, si, lerr, aerr)
					}
					continue
				}
				assertSeriesIdentical(t, legacy, appended)
				assertSeriesIdentical(t, rebuilt, appended)
			}
		}
	}
}

// TestExtractGroupsMatchesExtract checks the repair path: for any subset of
// z values (present, absent, duplicated), ExtractGroups returns exactly
// the matching entries of the full extraction, bit-identical.
func TestExtractGroupsMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 150; iter++ {
		tbl := randomTable(rng)
		ix := BuildIndex(tbl)
		if rng.Intn(2) == 0 {
			if err := ix.Append(randomDelta(rng, 1+rng.Intn(20))); err != nil {
				t.Fatal(err)
			}
		}
		spec := randomSpec(rng)
		full, ferr := ix.Extract(spec)
		zvals := make([]string, 0, 6)
		for n := rng.Intn(6); n >= 0; n-- {
			if len(full) > 0 && rng.Intn(3) > 0 {
				zvals = append(zvals, full[rng.Intn(len(full))].Z)
			} else {
				zvals = append(zvals, fmt.Sprintf("z%02d", rng.Intn(20)))
			}
		}
		got, gerr := ix.ExtractGroups(spec, zvals)
		if (ferr == nil) != (gerr == nil) {
			// ExtractGroups may dodge an AggNone duplicate confined to an
			// unrequested group; only the reverse direction is a bug.
			if ferr == nil {
				t.Fatalf("iter %d: ExtractGroups err %v, Extract none", iter, gerr)
			}
			continue
		}
		if ferr != nil {
			continue
		}
		want := make([]Series, 0, len(zvals))
		asked := make(map[string]bool, len(zvals))
		for _, z := range zvals {
			asked[z] = true
		}
		for _, s := range full {
			if asked[s.Z] {
				want = append(want, s)
			}
		}
		assertSeriesIdentical(t, want, got)
	}
}

// TestAppendSchemaMismatch pins the validation errors.
func TestAppendSchemaMismatch(t *testing.T) {
	base, err := New(
		Column{Name: "z", Type: String, Strings: []string{"a"}},
		Column{Name: "x", Type: Float, Floats: []float64{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(base)
	wrongCount, _ := New(Column{Name: "z", Type: String, Strings: []string{"a"}})
	if err := ix.Append(wrongCount); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Errorf("column-count mismatch: got %v", err)
	}
	wrongName, _ := New(
		Column{Name: "zz", Type: String, Strings: []string{"a"}},
		Column{Name: "x", Type: Float, Floats: []float64{1}},
	)
	if err := ix.Append(wrongName); err == nil {
		t.Error("column-name mismatch should error")
	}
	wrongType, _ := New(
		Column{Name: "z", Type: Float, Floats: []float64{1}},
		Column{Name: "x", Type: Float, Floats: []float64{1}},
	)
	if err := ix.Append(wrongType); err == nil {
		t.Error("column-type mismatch should error")
	}
	if ix.NumRows() != 1 {
		t.Errorf("failed appends must not grow the table: %d rows", ix.NumRows())
	}
}

// TestIndexConcurrentAppendExtract races appends against extractions (run
// with -race): every extraction must observe a consistent snapshot — a
// prefix of the append sequence — and never a torn state.
func TestIndexConcurrentAppendExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := randomTable(rng)
	ix := BuildIndex(tbl)
	deltas := make([]*Table, 20)
	for i := range deltas {
		deltas[i] = randomDelta(rand.New(rand.NewSource(int64(100+i))), 1+i%7)
	}
	spec := ExtractSpec{Z: "zs", X: "x", Y: "y", Agg: AggAvg}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range deltas {
			if err := ix.Append(d); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := ix.Extract(spec); err != nil {
					t.Errorf("extract: %v", err)
					return
				}
				if _, err := ix.ExtractGroups(spec, []string{"z00", "z07"}); err != nil {
					t.Errorf("extract groups: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
