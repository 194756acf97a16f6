package dataset

import (
	"fmt"
	"sort"
	"sync"
)

// Index is the columnar acceleration layer over a Table — the OLAP-style
// physical design Section 5.1 assumes for EXTRACT. It holds
//
//   - dictionary encodings of grouping columns: each distinct rendered
//     value gets an integer code, and a value-order view keeps extraction
//     output sorted by the rendered value however codes were assigned, so
//     z grouping compares integers and ValueString never runs in a hot
//     loop (string columns are encoded eagerly at build time, float
//     grouping keys lazily on first use);
//   - per (z, x) attribute pair, a memoized per-group row layout: each z
//     code's rows sorted by (x value, row). Extraction becomes one pass
//     over the groups in value order with no hash maps and no per-query
//     sorts, and XRange restriction a binary search inside each group.
//     Layouts are built on first use and memoized, so repeated
//     distinct-filter queries over one chart (the candidate-cache-miss
//     traffic) pay the sort once.
//
// Filters run as vectorized kernels into a selection bitmap (see
// CompileFilters) instead of the legacy per-row checked Filter.matches.
// Index.Extract returns Series identical — float-bit-for-bit — to the
// legacy Extract over the same table and spec.
//
// An Index is safe for concurrent use. The indexed table is NOT immutable:
// Append grows it (and every built encoding and layout) in place under the
// writer half of dataMu, so readers always observe a consistent snapshot.
type Index struct {
	t *Table

	// dataMu orders Append (writer) against extraction and lazy builds
	// (readers): every derived structure — table columns, dictionaries,
	// permutation layouts — is read or lazily built under the read lock and
	// extended only under the write lock.
	dataMu sync.RWMutex

	// enc[ci] is the grouping encoding of column ci; string columns are
	// filled at build time, float columns built lazily under mu.
	mu    sync.Mutex
	enc   []*lazyEnc
	perms map[permKey]*lazyPerm
}

type permKey struct{ z, x int }

type lazyEnc struct {
	once sync.Once
	enc  *zEncoding
}

type lazyPerm struct {
	once sync.Once
	p    *zxPerm
}

// zEncoding dictionary-encodes one column's rendered values. The dictionary
// is append-only — Append assigns fresh codes to unseen values without ever
// re-encoding existing rows — so codes carry no order; the order view lists
// codes by ascending rendered value and is what keeps extraction output
// sorted the way legacy extraction sorts group names.
type zEncoding struct {
	codes []uint32 // row -> code, append-only
	dict  []string // code -> rendered value, append-only
	order []uint32 // codes in ascending dict-value order
}

// lookup returns the code of a rendered value.
func (e *zEncoding) lookup(v string) (uint32, bool) {
	i := sort.Search(len(e.order), func(i int) bool { return e.dict[e.order[i]] >= v })
	if i < len(e.order) && e.dict[e.order[i]] == v {
		return e.order[i], true
	}
	return 0, false
}

// extend assigns codes to appended rendered values: known values reuse
// their code, unseen values get fresh codes at the end of the dictionary,
// and the value-order view is re-sorted once (O(d log d) in the distinct
// count, independent of the existing row count).
func (e *zEncoding) extend(rendered []string) {
	var added map[string]uint32
	for _, v := range rendered {
		code, ok := e.lookup(v)
		if !ok {
			if c, dup := added[v]; dup {
				code = c
			} else {
				code = uint32(len(e.dict))
				e.dict = append(e.dict, v)
				if added == nil {
					added = make(map[string]uint32)
				}
				added[v] = code
			}
		}
		e.codes = append(e.codes, code)
	}
	if added != nil {
		for _, code := range added {
			e.order = append(e.order, code)
		}
		sort.Slice(e.order, func(a, b int) bool { return e.dict[e.order[a]] < e.dict[e.order[b]] })
	}
}

// zxPerm is the memoized physical layout for one (z, x) attribute pair:
// per z code, the row list sorted by (x, row) with NaN-x rows dropped.
// Extraction iterates groups in the encoding's value order, so output
// order never depends on code-assignment order.
type zxPerm struct {
	groups []*zrows // indexed by z code; nil = no rows
}

// zrows is one z group's row list, sorted by (x, row).
type zrows struct {
	rows []int32
}

// BuildIndex builds the columnar index for a table: every string column is
// dictionary-encoded up front (one O(rows) pass plus an O(d log d) sort of
// d distinct values per column); grouping encodings for float columns and
// (z, x) layouts are built lazily on first use. The table is owned by the
// index afterwards — Append grows it in place.
func BuildIndex(t *Table) *Index {
	ix := &Index{
		t:     t,
		enc:   make([]*lazyEnc, len(t.cols)),
		perms: make(map[permKey]*lazyPerm),
	}
	for ci := range t.cols {
		ix.enc[ci] = &lazyEnc{}
		if t.cols[ci].Type == String {
			e := ix.enc[ci]
			e.once.Do(func() { e.enc = buildEncoding(&t.cols[ci]) })
		}
	}
	return ix
}

// Table returns the indexed table, making *Index a Source. The table is a
// live view: Append grows it in place, so callers needing a stable row
// count under concurrent appends should use NumRows instead.
func (ix *Index) Table() *Table { return ix.t }

// NumRows reports the current row count, consistent under concurrent
// Append.
func (ix *Index) NumRows() int {
	ix.dataMu.RLock()
	defer ix.dataMu.RUnlock()
	return ix.t.rows
}

// buildEncoding dictionary-encodes a column's rendered values.
func buildEncoding(c *Column) *zEncoding {
	n := c.Len()
	rendered := renderColumn(c, 0, n)
	distinct := make(map[string]struct{}, 64)
	for _, v := range rendered {
		distinct[v] = struct{}{}
	}
	dict := make([]string, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	byValue := make(map[string]uint32, len(dict))
	order := make([]uint32, len(dict))
	for code, v := range dict {
		byValue[v] = uint32(code)
		order[code] = uint32(code)
	}
	codes := make([]uint32, n)
	for i, v := range rendered {
		codes[i] = byValue[v]
	}
	return &zEncoding{codes: codes, dict: dict, order: order}
}

// renderColumn renders rows [lo, hi) of a column as grouping keys.
func renderColumn(c *Column, lo, hi int) []string {
	rendered := make([]string, hi-lo)
	if c.Type == String {
		copy(rendered, c.Strings[lo:hi])
		return rendered
	}
	for i := lo; i < hi; i++ {
		rendered[i-lo] = c.ValueString(i)
	}
	return rendered
}

// encoding returns the grouping encoding for column ci, building it on
// first use for float columns.
func (ix *Index) encoding(ci int) *zEncoding {
	e := ix.enc[ci]
	e.once.Do(func() { e.enc = buildEncoding(&ix.t.cols[ci]) })
	return e.enc
}

// builtEncoding returns the encoding for column ci only if it has already
// been built (used by filter compilation, which must not pay an encoding
// build for a column that is merely filtered on).
func (ix *Index) builtEncoding(ci int) *zEncoding {
	e := ix.enc[ci]
	if ix.t.cols[ci].Type == String {
		return e.enc // eager, always built
	}
	return nil
}

// perm returns the memoized (z, x) layout, building it on first use.
func (ix *Index) perm(zi, xi int) *zxPerm {
	key := permKey{zi, xi}
	ix.mu.Lock()
	lp, ok := ix.perms[key]
	if !ok {
		lp = &lazyPerm{}
		ix.perms[key] = lp
	}
	ix.mu.Unlock()
	lp.once.Do(func() { lp.p = ix.buildPerm(zi, xi) })
	return lp.p
}

// buildPerm buckets row ids by z code, dropping non-finite-x rows (they can
// never appear in a series for this x attribute), and sorts each group by
// (x, row).
func (ix *Index) buildPerm(zi, xi int) *zxPerm {
	enc := ix.encoding(zi)
	xs := ix.t.cols[xi].Floats
	codes := enc.codes
	p := &zxPerm{groups: make([]*zrows, len(enc.dict))}
	for i := 0; i < ix.t.rows; i++ {
		if !finite(xs[i]) {
			continue
		}
		g := p.groups[codes[i]]
		if g == nil {
			g = &zrows{}
			p.groups[codes[i]] = g
		}
		g.rows = append(g.rows, int32(i))
	}
	for _, g := range p.groups {
		if g != nil {
			sortByXRow(g.rows, xs)
		}
	}
	return p
}

// sortByXRow sorts a row list by (x value, row id). Inputs gathered in
// ascending row order stay row-ascending within equal x.
func sortByXRow(rows []int32, xs []float64) {
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		xa, xb := xs[ra], xs[rb]
		if xa != xb {
			return xa < xb
		}
		return ra < rb
	})
}

// extend absorbs appended rows [base, total) into the layout: the delta is
// bucketed per group and only each group's tail is sorted; a tail whose
// first x is at or past the group's last x — the in-order streaming case —
// is appended outright, anything else is merged in one linear pass over
// the group. Cost is O(delta log delta) plus the touched groups' sizes,
// never the corpus's.
func (p *zxPerm) extend(enc *zEncoding, xs []float64, base, total int) {
	if len(p.groups) < len(enc.dict) {
		p.groups = append(p.groups, make([]*zrows, len(enc.dict)-len(p.groups))...)
	}
	var touched []uint32
	tails := make(map[uint32][]int32)
	for i := base; i < total; i++ {
		if !finite(xs[i]) {
			continue
		}
		c := enc.codes[i]
		if _, ok := tails[c]; !ok {
			touched = append(touched, c)
		}
		tails[c] = append(tails[c], int32(i))
	}
	for _, c := range touched {
		tail := tails[c]
		sortByXRow(tail, xs)
		g := p.groups[c]
		if g == nil {
			p.groups[c] = &zrows{rows: tail}
			continue
		}
		old := g.rows
		if len(old) == 0 || xs[tail[0]] >= xs[old[len(old)-1]] {
			g.rows = append(old, tail...)
			continue
		}
		// Out-of-order arrival: merge the sorted tail into the sorted group.
		// Appended row ids exceed existing ones, so taking the old row on
		// equal x preserves the (x, row) order.
		merged := make([]int32, 0, len(old)+len(tail))
		i, j := 0, 0
		for i < len(old) && j < len(tail) {
			if xs[old[i]] <= xs[tail[j]] {
				merged = append(merged, old[i])
				i++
			} else {
				merged = append(merged, tail[j])
				j++
			}
		}
		merged = append(merged, old[i:]...)
		merged = append(merged, tail[j:]...)
		g.rows = merged
	}
}

// Append appends delta's rows (same schema: column names and types, in
// order) to the indexed table, maintaining every already-built structure
// incrementally: dictionaries only grow — existing rows are never
// re-encoded — and each memoized (z, x) layout absorbs the delta per group
// (see zxPerm.extend). Lazy state not yet built stays unbuilt and simply
// sees the longer table on first use. Readers block for the duration; an
// extraction started before Append returns the pre-append snapshot, one
// started after returns the post-append table, never a mix.
func (ix *Index) Append(delta *Table) error {
	if err := validateAppendSchema(ix.t, delta); err != nil {
		return err
	}
	ix.dataMu.Lock()
	defer ix.dataMu.Unlock()
	t := ix.t
	base := t.rows
	for ci := range t.cols {
		dst, src := &t.cols[ci], &delta.cols[ci]
		if dst.Type == Float {
			dst.Floats = append(dst.Floats, src.Floats...)
		} else {
			dst.Strings = append(dst.Strings, src.Strings...)
		}
	}
	t.rows += delta.rows
	for ci := range t.cols {
		// Built encodings extend in place; lp.p / e.enc reads are safe here
		// because every lazy build runs under the read lock, which the write
		// lock excludes.
		if e := ix.enc[ci].enc; e != nil {
			e.extend(renderColumn(&t.cols[ci], base, t.rows))
		}
	}
	for key, lp := range ix.perms {
		if lp.p == nil {
			continue
		}
		lp.p.extend(ix.enc[key.z].enc, t.cols[key.x].Floats, base, t.rows)
	}
	return nil
}

// validateAppendSchema requires delta's columns to match the base table's
// names and types, in order.
func validateAppendSchema(t, delta *Table) error {
	if len(delta.cols) != len(t.cols) {
		return fmt.Errorf("dataset: append schema mismatch: %d columns, want %d", len(delta.cols), len(t.cols))
	}
	for i := range t.cols {
		if delta.cols[i].Name != t.cols[i].Name {
			return fmt.Errorf("dataset: append schema mismatch: column %d is %q, want %q", i, delta.cols[i].Name, t.cols[i].Name)
		}
		if delta.cols[i].Type != t.cols[i].Type {
			return fmt.Errorf("dataset: append schema mismatch: column %q type differs", t.cols[i].Name)
		}
	}
	return nil
}

// Extract is the index-backed EXTRACT: filters run as vectorized kernels
// into a selection bitmap, grouping walks the memoized (z, x) groups in
// value order, and XRanges narrow each group by binary search. Output is
// identical to the legacy Extract(t, spec).
func (ix *Index) Extract(spec ExtractSpec) ([]Series, error) {
	ix.dataMu.RLock()
	defer ix.dataMu.RUnlock()
	st, err := ix.extractState(spec)
	if err != nil || st == nil {
		return []Series{}, err
	}
	series := make([]Series, 0, len(st.enc.order))
	var pts []point // scratch, reused across groups
	for _, code := range st.enc.order {
		g := st.p.groups[code]
		if g == nil || len(g.rows) == 0 {
			continue
		}
		var s Series
		var ok bool
		pts, s, ok, err = st.extractGroup(g.rows, st.enc.dict[code], spec, pts)
		if err != nil {
			return nil, err
		}
		if ok {
			series = append(series, s)
		}
	}
	return series, nil
}

// ExtractGroups extracts only the named z groups (rendered values), in
// ascending value order, skipping values absent from the dataset or
// emptied by filters and NaNs. It is the repair path for incremental
// appends: per group the cost is that group's size, with one vectorized
// filter pass over the table only when the spec carries filters. Output
// series are bit-identical to the corresponding entries of Extract(spec).
func (ix *Index) ExtractGroups(spec ExtractSpec, zvals []string) ([]Series, error) {
	ix.dataMu.RLock()
	defer ix.dataMu.RUnlock()
	st, err := ix.extractState(spec)
	if err != nil || st == nil {
		return []Series{}, err
	}
	sorted := append([]string(nil), zvals...)
	sort.Strings(sorted)
	series := make([]Series, 0, len(sorted))
	var pts []point
	for i, z := range sorted {
		if i > 0 && z == sorted[i-1] {
			continue
		}
		code, ok := st.enc.lookup(z)
		if !ok {
			continue
		}
		g := st.p.groups[code]
		if g == nil || len(g.rows) == 0 {
			continue
		}
		var s Series
		pts, s, ok, err = st.extractGroup(g.rows, z, spec, pts)
		if err != nil {
			return nil, err
		}
		if ok {
			series = append(series, s)
		}
	}
	return series, nil
}

// extractCtx is the shared per-extraction state of Extract and
// ExtractGroups.
type extractCtx struct {
	enc    *zEncoding
	p      *zxPerm
	xs, ys []float64
	sel    []uint64
	ranges [][2]float64
}

// extractState resolves a spec into an extractCtx: attribute resolution,
// filter compilation and the one vectorized filter pass, range
// normalization, and the lazy encoding/layout builds. A nil state (with
// nil error) means the spec's XRanges exclude everything. Caller holds
// dataMu.
func (ix *Index) extractState(spec ExtractSpec) (*extractCtx, error) {
	t := ix.t
	_, xc, yc, err := resolveSpec(t, spec)
	if err != nil {
		return nil, err
	}
	zi := t.byName[spec.Z]
	xi := t.byName[spec.X]
	prog, err := CompileFilters(t, spec.Filters, ix.builtEncoding)
	if err != nil {
		return nil, err
	}
	ranges := normalizeRanges(spec.XRanges)
	if len(spec.XRanges) > 0 && len(ranges) == 0 {
		return nil, nil // only empty windows: nothing can match
	}
	var sel []uint64
	if prog != nil {
		sel = prog.Run()
	}
	return &extractCtx{
		enc: ix.encoding(zi),
		p:   ix.perm(zi, xi),
		xs:  xc.Floats, ys: yc.Floats,
		sel: sel, ranges: ranges,
	}, nil
}

// extractGroup renders one z group's Series from its sorted row list; both
// extraction entry points share it so their output stays bit-identical.
// ok=false when filters, windows and non-finite values leave no points.
func (st *extractCtx) extractGroup(rows []int32, z string, spec ExtractSpec, pts []point) ([]point, Series, bool, error) {
	pts = pts[:0]
	appendRange := func(start, end int) {
		for k := start; k < end; k++ {
			row := rows[k]
			if !selected(st.sel, int(row)) {
				continue
			}
			y := st.ys[row]
			if !finite(y) {
				continue
			}
			pts = append(pts, point{st.xs[row], y})
		}
	}
	if st.ranges == nil {
		appendRange(0, len(rows))
	} else {
		// Disjoint ascending windows over a group sorted by x: each
		// binary-searches to its sub-range, and visiting them in order
		// preserves the global (x, row) order.
		for _, r := range st.ranges {
			lo := searchRunX(rows, st.xs, 0, len(rows), r[0])
			hi := searchRunXAfter(rows, st.xs, lo, len(rows), r[1])
			appendRange(lo, hi)
		}
	}
	if len(pts) == 0 {
		return pts, Series{}, false, nil
	}
	s, err := buildSeries(z, pts, spec)
	if err != nil {
		return pts, Series{}, false, err
	}
	return pts, s, true, nil
}

// buildSeries aggregates one z group's points (already in (x, row) order)
// into a Series, sharing the legacy path's aggregate helper and its
// AggNone duplicate error.
func buildSeries(z string, pts []point, spec ExtractSpec) (Series, error) {
	s := Series{Z: z, X: make([]float64, 0, len(pts)), Y: make([]float64, 0, len(pts))}
	for i := 0; i < len(pts); {
		j := i
		for j < len(pts) && pts[j].x == pts[i].x {
			j++
		}
		if j-i > 1 && spec.Agg == AggNone {
			return Series{}, duplicateErr(spec, z, pts[i].x)
		}
		s.X = append(s.X, pts[i].x)
		s.Y = append(s.Y, aggregate(pts[i:j], spec.Agg))
		i = j
	}
	return s, nil
}

// searchRunX returns the first position in rows[start:end) whose x is >= v.
func searchRunX(rows []int32, xs []float64, start, end int, v float64) int {
	return start + sort.Search(end-start, func(k int) bool {
		return xs[rows[start+k]] >= v
	})
}

// searchRunXAfter returns the first position in rows[start:end) whose x is
// strictly greater than v.
func searchRunXAfter(rows []int32, xs []float64, start, end int, v float64) int {
	return start + sort.Search(end-start, func(k int) bool {
		return xs[rows[start+k]] > v
	})
}

// normalizeRanges drops empty windows (start > end, or any NaN bound) and
// merges overlapping ones into disjoint ascending windows, preserving the
// union-of-ranges row semantics of InRanges while letting the indexed path
// visit each qualifying row exactly once. Nil means "no restriction";
// non-nil-but-empty means the windows exclude everything.
func normalizeRanges(ranges [][2]float64) [][2]float64 {
	if len(ranges) == 0 {
		return nil
	}
	valid := make([][2]float64, 0, len(ranges))
	for _, r := range ranges {
		if r[0] <= r[1] { // also rejects NaN bounds
			valid = append(valid, r)
		}
	}
	if len(valid) == 0 {
		return valid
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i][0] < valid[j][0] })
	merged := valid[:1]
	for _, r := range valid[1:] {
		last := &merged[len(merged)-1]
		if r[0] <= last[1] {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}
