package dataset

import "fmt"

// Vectorized filter kernels: a filter conjunction is validated and compiled
// once per extraction into a filterProgram, then applied over whole column
// slices into a selection bitmap — no per-row error checks or interface
// dispatch in the hot loop. The bitmap is a []uint64 bitset with one bit
// per row.

// filterProgram is a compiled, validated filter conjunction over one table.
// A nil *filterProgram selects every row.
type filterProgram struct {
	kernels []kernel
	rows    int
}

// kernel fills (first pass) or intersects (later passes) the selection
// bitmap with one predicate's matches over the whole column.
type kernel func(sel []uint64, first bool)

// compileFilters validates the filter conjunction against the indexed
// table — column existence and operator/type compatibility — and compiles
// it into vectorized kernels. A string filter compares codes of its
// column's encoding, which it builds on first use and later extractions
// reuse; a float filter compares values and builds nothing. Caller holds
// dataMu.
func (ix *Index) compileFilters(filters []Filter) (*filterProgram, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	t := ix.t
	p := &filterProgram{rows: t.rows}
	for _, f := range filters {
		ci, ok := t.byName[f.Col]
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", f.Col)
		}
		c := &t.cols[ci]
		if c.Type == String {
			if f.Op != Eq && f.Op != Ne {
				return nil, fmt.Errorf("dataset: operator %s not supported on string column %q", f.Op, f.Col)
			}
			p.kernels = append(p.kernels, stringKernel(ix.encoding(ci), f.Op, f.Str))
			continue
		}
		if f.Op < Eq || f.Op > Ge {
			return nil, fmt.Errorf("dataset: unknown operator %d", int(f.Op))
		}
		p.kernels = append(p.kernels, floatKernel(c.Floats, f.Op, f.Num))
	}
	return p, nil
}

// run evaluates the program over all rows into a fresh selection bitmap.
func (p *filterProgram) run() []uint64 {
	sel := make([]uint64, (p.rows+63)/64)
	for i, k := range p.kernels {
		k(sel, i == 0)
	}
	return sel
}

// selected reports bit row of the bitmap; a nil bitmap selects everything.
func selected(sel []uint64, row int) bool {
	return sel == nil || sel[row>>6]&(1<<(uint(row)&63)) != 0
}

// floatKernel compares a whole float column against a constant. The
// operator switch sits outside the row loop, so each loop body is a single
// branch-predictable comparison accumulated into 64-row words.
func floatKernel(vals []float64, op FilterOp, num float64) kernel {
	return func(sel []uint64, first bool) {
		n := len(vals)
		switch op {
		case Eq:
			applyWords(sel, first, n, func(i int) bool { return vals[i] == num })
		case Ne:
			applyWords(sel, first, n, func(i int) bool { return vals[i] != num })
		case Lt:
			applyWords(sel, first, n, func(i int) bool { return vals[i] < num })
		case Le:
			applyWords(sel, first, n, func(i int) bool { return vals[i] <= num })
		case Gt:
			applyWords(sel, first, n, func(i int) bool { return vals[i] > num })
		default: // Ge
			applyWords(sel, first, n, func(i int) bool { return vals[i] >= num })
		}
	}
}

// stringKernel compares a dictionary-encoded string column against a
// constant: one integer equality per row. A constant absent from the
// dictionary short-circuits: Eq matches nothing, Ne everything.
func stringKernel(e *zEncoding, op FilterOp, str string) kernel {
	codes := e.codes
	code, present := e.lookup(str)
	return func(sel []uint64, first bool) {
		switch {
		case !present:
			applyWords(sel, first, len(codes), func(int) bool { return op == Ne })
		case op == Eq:
			applyWords(sel, first, len(codes), func(i int) bool { return codes[i] == code })
		default:
			applyWords(sel, first, len(codes), func(i int) bool { return codes[i] != code })
		}
	}
}

// applyWords runs a predicate over rows [0, n), packing results into 64-bit
// words: the first kernel writes the bitmap, later kernels AND into it
// (conjunctive filters), skipping whole words that are already all-zero.
func applyWords(sel []uint64, first bool, n int, match func(i int) bool) {
	for w := 0; w*64 < n; w++ {
		if !first && sel[w] == 0 {
			continue
		}
		lo := w * 64
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var word uint64
		for i := lo; i < hi; i++ {
			if match(i) {
				word |= 1 << (uint(i) & 63)
			}
		}
		if first {
			sel[w] = word
		} else {
			sel[w] &= word
		}
	}
}
