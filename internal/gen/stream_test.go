package gen

import (
	"testing"

	"shapesearch/internal/dataset"
)

func tableFingerprint(t *dataset.Table) string {
	out := ""
	for _, name := range t.ColumnNames() {
		c, _ := t.Column(name)
		for i := 0; i < t.NumRows(); i++ {
			out += c.ValueString(i) + "|"
		}
		out += ";"
	}
	return out
}

func TestStreamTicksDeterministic(t *testing.T) {
	for _, inOrder := range []bool{true, false} {
		base1, batches1 := StreamTicks(40, 6, 5, 30, 99, inOrder)
		base2, batches2 := StreamTicks(40, 6, 5, 30, 99, inOrder)
		if tableFingerprint(base1) != tableFingerprint(base2) {
			t.Fatalf("inOrder=%v: base tables differ between identical calls", inOrder)
		}
		if len(batches1) != 5 || len(batches2) != 5 {
			t.Fatalf("inOrder=%v: got %d/%d batches, want 5", inOrder, len(batches1), len(batches2))
		}
		for b := range batches1 {
			if tableFingerprint(batches1[b]) != tableFingerprint(batches2[b]) {
				t.Fatalf("inOrder=%v: batch %d differs between identical calls", inOrder, b)
			}
		}
		if base1.NumRows() != 40*6 {
			t.Fatalf("base rows = %d, want %d", base1.NumRows(), 40*6)
		}
		for _, bt := range batches1 {
			if bt.NumRows() != 30 {
				t.Fatalf("batch rows = %d, want 30", bt.NumRows())
			}
		}
	}
}

// TestStreamTicksUniqueX guards the AggNone compatibility promise: no series
// ever emits a duplicate x, in order or out of order.
func TestStreamTicksUniqueX(t *testing.T) {
	for _, inOrder := range []bool{true, false} {
		base, batches := StreamTicks(25, 8, 12, 40, 7, inOrder)
		seen := make(map[string]map[float64]bool)
		record := func(tb *dataset.Table) {
			zc, _ := tb.Column("z")
			xc, _ := tb.Column("x")
			for i := 0; i < tb.NumRows(); i++ {
				z, x := zc.ValueString(i), xc.Floats[i]
				if seen[z] == nil {
					seen[z] = make(map[float64]bool)
				}
				if seen[z][x] {
					t.Fatalf("inOrder=%v: series %s repeats x=%v", inOrder, z, x)
				}
				seen[z][x] = true
			}
		}
		record(base)
		for _, bt := range batches {
			record(bt)
		}
	}
}
