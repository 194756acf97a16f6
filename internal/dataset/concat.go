package dataset

import "fmt"

// Concat stacks tables row-wise into one new table. Every table must carry
// the first table's exact schema — same column names, order, and types —
// mirroring the append-path contract, so a fresh build over Concat(base,
// deltas...) is the ground truth an incrementally appended index is checked
// against.
func Concat(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("dataset: Concat of no tables")
	}
	head := tables[0]
	for _, t := range tables[1:] {
		if err := validateAppendSchema(head, t); err != nil {
			return nil, err
		}
	}
	cols := make([]Column, len(head.cols))
	for ci := range head.cols {
		cols[ci] = Column{Name: head.cols[ci].Name, Type: head.cols[ci].Type}
		for _, t := range tables {
			src := &t.cols[ci]
			if cols[ci].Type == Float {
				cols[ci].Floats = append(cols[ci].Floats, src.Floats...)
				continue
			}
			for r := 0; r < t.rows; r++ {
				cols[ci].Strings = append(cols[ci].Strings, src.ValueString(r))
			}
		}
	}
	return New(cols...)
}
