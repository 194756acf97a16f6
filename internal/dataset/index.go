package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Index is the columnar EXTRACT operator over a Table — the OLAP-style
// physical design Section 5.1 assumes. It holds
//
//   - dictionary encodings of grouping columns (a String column's built by
//     New, a Float column's on first use): each distinct rendered value gets
//     an integer code in order of first appearance, and a value-order view
//     keeps extraction output sorted by the rendered value, so z grouping
//     compares integers and ValueString never runs in a hot loop;
//   - per (z, x) attribute pair, a memoized per-group row layout: each z
//     code's rows sorted by (x value, row), stored as a run when they are
//     consecutive table rows already in that order. Extraction becomes one
//     pass over the groups in value order with no hash maps and no
//     per-query sorts, and XRange restriction a binary search inside each
//     group. Layouts are built on first use and memoized, so repeated
//     distinct-filter queries over one chart (the candidate-cache-miss
//     traffic) pay the sort once.
//
// Filters run as vectorized kernels into a selection bitmap (see
// compileFilters). BuildIndex does no per-row work, so a transient index
// (package-level Extract) pays only for the columns its spec reads.
//
// An Index is safe for concurrent use. BuildIndex never writes to the
// table; Append grows it (and every built encoding and layout) in place
// under the writer half of dataMu, so readers always observe a consistent
// snapshot.
type Index struct {
	t *Table

	// dataMu orders Append (writer) against extraction and lazy builds
	// (readers): every derived structure — table columns, dictionaries,
	// permutation layouts — is read or lazily built under the read lock and
	// extended only under the write lock.
	dataMu sync.RWMutex

	// enc[ci] is the encoding of Float column ci, built on first use.
	enc []lazyEnc

	mu    sync.Mutex
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

// zEncoding dictionary-encodes one column's rendered values. Codes are
// assigned in order of first appearance and the dictionary is append-only —
// Append gives unseen values fresh codes without ever re-encoding existing
// rows — so codes carry no order; the order view lists codes by ascending
// rendered value and is what keeps extraction output sorted by group name.
type zEncoding struct {
	codes []uint32 // row -> code, append-only
	dict  []string // code -> rendered value, append-only
	order []uint32 // codes in ascending dict-value order
}

// extendFloats encodes the rows of Float column c past the last encoded
// one and returns e. Equal bits render alike; −0 and +0 do not, so rows
// compare by bits, not ==.
func (e *zEncoding) extendFloats(c *Column) *zEncoding {
	lo, fs := len(e.codes), c.Floats
	e.extend(len(fs)-lo, func(k int) bool { return math.Float64bits(fs[lo+k]) == math.Float64bits(fs[lo+k-1]) },
		func(k int) string { return c.ValueString(lo + k) })
	return e
}

// lookup returns the code of a rendered value.
func (e *zEncoding) lookup(v string) (uint32, bool) {
	i := sort.Search(len(e.order), func(i int) bool { return e.dict[e.order[i]] >= v })
	if i < len(e.order) && e.dict[e.order[i]] == v {
		return e.order[i], true
	}
	return 0, false
}

// extend encodes n more rows in one pass: value(k) renders the k-th, and
// same(k), asked for k > 0, whether it renders like the one before. Such a
// row takes that code without a lookup — a table laid out series by series
// keeps each group's rows together, so most rows cost one comparison —
// known values reuse their code, and unseen values get fresh codes at the
// end of the dictionary as copies (encoding/csv backs a record's fields
// with one string, which a shared value would keep alive). The value-order
// view is then re-sorted once, O(d log d) in the distinct count.
func (e *zEncoding) extend(n int, same func(k int) bool, value func(k int) string) {
	lo, known := len(e.codes), len(e.dict)
	e.codes = slices.Grow(e.codes, n)
	var added map[string]uint32
	for k := 0; k < n; k++ {
		if k > 0 && same(k) {
			e.codes = append(e.codes, e.codes[lo+k-1])
			continue
		}
		v := value(k)
		code, ok := added[v]
		if !ok {
			code, ok = e.lookup(v)
		}
		if !ok {
			v = strings.Clone(v)
			code = uint32(len(e.dict))
			e.dict = append(e.dict, v)
			if added == nil {
				added = make(map[string]uint32)
			}
			added[v] = code
		}
		e.codes = append(e.codes, code)
	}
	if len(e.dict) == known {
		return
	}
	for code := known; code < len(e.dict); code++ {
		e.order = append(e.order, uint32(code))
	}
	slices.SortFunc(e.order, func(a, b uint32) int { return strings.Compare(e.dict[a], e.dict[b]) })
}

// zxPerm is the memoized physical layout for one (z, x) attribute pair:
// per z code, the group's rows sorted by (x, row) with non-finite-x rows
// dropped. Extraction iterates groups in the encoding's value order, so
// output order never depends on code-assignment order.
type zxPerm struct {
	groups []group // indexed by z code; empty = no rows
}

// group is one z code's n rows in (x, row) order: the row list rows, or
// when rows is nil the run of consecutive table rows lo, …, lo+n−1, which
// costs no row array.
type group struct {
	rows  []int32
	lo, n int32
}

// row returns the group's k-th row: the one accessor extraction,
// ExtractGroups and the XRange binary searches read rows through.
func (g *group) row(k int) int {
	if g.rows != nil {
		return int(g.rows[k])
	}
	return int(g.lo) + k
}

// list returns the group's row list; a run becomes a new one.
func (g *group) list() []int32 {
	if g.rows != nil {
		return g.rows
	}
	rows := make([]int32, g.n)
	for k := range rows {
		rows[k] = g.lo + int32(k)
	}
	return rows
}

// BuildIndex returns the columnar index for a table. It does no per-row
// work: each Float column's encoding and each (z, x) layout is built by
// the first extraction that needs it. BuildIndex never writes to t; only
// Append grows it, in place.
func BuildIndex(t *Table) *Index {
	return &Index{
		t:     t,
		enc:   make([]lazyEnc, len(t.cols)),
		perms: make(map[permKey]*lazyPerm),
	}
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

// encoding returns the encoding of column ci: a String column's own, or a
// Float column's, built on first use. Caller holds dataMu.
func (ix *Index) encoding(ci int) *zEncoding {
	c := &ix.t.cols[ci]
	if c.Type == String {
		return c.enc
	}
	e := &ix.enc[ci]
	e.once.Do(func() { e.enc = (&zEncoding{}).extendFloats(c) })
	return e.enc
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

// buildPerm buckets row ids by z code in two counting passes, dropping
// non-finite-x rows (they can never appear in a series for this x
// attribute), and sorts each group by (x, row). A group of consecutive
// rows already in that order is a run; the row lists share one backing
// array, which runs do not hold, each capped at its own length so Append's
// growth of one group copies it rather than overwriting the next.
func (ix *Index) buildPerm(zi, xi int) *zxPerm {
	enc := ix.encoding(zi)
	xs := ix.t.cols[xi].Floats
	codes := enc.codes
	ends := make([]int, len(enc.dict))
	for i, c := range codes {
		if finite(xs[i]) {
			ends[c]++
		}
	}
	total := 0
	for c, n := range ends {
		total += n
		ends[c] = total
	}
	// Filling back to front leaves each group row-ascending and ends[c] at
	// the group's start.
	rows := make([]int32, total)
	for i := len(codes) - 1; i >= 0; i-- {
		if finite(xs[i]) {
			ends[codes[i]]--
			rows[ends[codes[i]]] = int32(i)
		}
	}
	p := &zxPerm{groups: make([]group, len(enc.dict))}
	for c, lo := range ends {
		hi := total
		if c+1 < len(ends) {
			hi = ends[c+1]
		}
		// A group's rows ascend, so they are consecutive exactly when the
		// last is len−1 past the first.
		switch g := rows[lo:hi:hi]; {
		case len(g) == 0:
		case sortByXRow(g, xs) && int(g[len(g)-1]-g[0]) == len(g)-1:
			p.groups[c] = group{lo: g[0], n: int32(len(g))}
		default:
			p.groups[c] = group{rows: g, n: int32(len(g))}
		}
	}
	return p
}

// sortByXRow sorts a row list by (x value, row id) and reports whether it
// already was: rows laid out in x order within each group need no sort.
func sortByXRow(rows []int32, xs []float64) bool {
	byXRow := func(a, b int32) int {
		if c := cmp.Compare(xs[a], xs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	if slices.IsSortedFunc(rows, byXRow) {
		return true
	}
	slices.SortFunc(rows, byXRow)
	return false
}

// extend absorbs appended rows [base, total) into the layout: the delta is
// bucketed per group and only each group's tail is sorted; a tail whose
// first x is at or past the group's last x — the in-order streaming case —
// is appended outright, anything else is merged in one linear pass over
// the group. A touched group becomes a row list. Cost is O(delta log
// delta) plus the touched groups' sizes, never the corpus's.
func (p *zxPerm) extend(enc *zEncoding, xs []float64, base, total int) {
	if len(p.groups) < len(enc.dict) {
		p.groups = append(p.groups, make([]group, len(enc.dict)-len(p.groups))...)
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
		old := p.groups[c].list()
		if len(old) == 0 || xs[tail[0]] >= xs[old[len(old)-1]] {
			rows := append(old, tail...)
			p.groups[c] = group{rows: rows, n: int32(len(rows))}
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
		p.groups[c] = group{rows: merged, n: int32(len(merged))}
	}
}

// Append appends delta's rows (same schema: column names and types, in
// order) to the indexed table, maintaining every already-built structure
// incrementally: dictionaries only grow — existing rows are never
// re-encoded — and each memoized (z, x) layout absorbs the delta per group
// (see zxPerm.extend). Lazy state not yet built stays unbuilt and simply
// sees the longer table on first use. Readers block for the duration; an
// extraction started before Append returns the pre-append snapshot, one
// started after returns the post-append table, never a mix. Append never
// rewrites a row, so a series that shares the table's storage keeps its
// values.
func (ix *Index) Append(delta *Table) error {
	if err := validateAppendSchema(ix.t, delta); err != nil {
		return err
	}
	ix.dataMu.Lock()
	defer ix.dataMu.Unlock()
	t := ix.t
	base := t.rows
	for ci := range t.cols {
		dst, src := &t.cols[ci], delta.cols[ci].enc
		if dst.Type == Float {
			dst.Floats = append(dst.Floats, delta.cols[ci].Floats...)
		} else {
			dst.enc.extend(len(src.codes), func(k int) bool { return src.codes[k] == src.codes[k-1] },
				func(k int) string { return src.dict[src.codes[k]] })
		}
		// Built encodings and layouts extend in place; e.enc and lp.p reads
		// are safe here because every lazy build runs under the read lock,
		// which the write lock excludes.
		if e := ix.enc[ci].enc; e != nil {
			e.extendFloats(dst)
		}
	}
	t.rows += delta.rows
	for key, lp := range ix.perms {
		if lp.p != nil {
			lp.p.extend(ix.encoding(key.z), t.cols[key.x].Floats, base, t.rows)
		}
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

// Extract selects and aggregates records into one Series per distinct z
// value, sorted on z then x (the EXTRACT physical operator, Section 5.3):
// filters run as vectorized kernels into a selection bitmap, grouping walks
// the memoized (z, x) groups in value order, and XRanges narrow each group
// by binary search. A series may share the table's storage and must not be
// modified (see Series).
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
		g := &st.p.groups[code]
		if int(g.n) == 0 {
			continue
		}
		var s Series
		var ok bool
		pts, s, ok, err = st.extractGroup(g, st.enc.dict[code], spec, pts)
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
		g := &st.p.groups[code]
		if int(g.n) == 0 {
			continue
		}
		var s Series
		pts, s, ok, err = st.extractGroup(g, z, spec, pts)
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
	prog, err := ix.compileFilters(spec.Filters)
	if err != nil {
		return nil, err
	}
	ranges := normalizeRanges(spec.XRanges)
	if len(spec.XRanges) > 0 && len(ranges) == 0 {
		return nil, nil // only empty windows: nothing can match
	}
	var sel []uint64
	if prog != nil {
		sel = prog.run()
	}
	return &extractCtx{
		enc: ix.encoding(zi),
		p:   ix.perm(zi, xi),
		xs:  xc.Floats, ys: yc.Floats,
		sel: sel, ranges: ranges,
	}, nil
}

// extractGroup renders one z group's Series from its sorted rows; both
// extraction entry points share it so their output stays bit-identical.
// ok=false when filters, windows and non-finite values leave no points.
//
// An unfiltered, unwindowed AggNone series of a run that building would
// copy unchanged shares the run's x and y instead, capped so that
// appending to the series cannot write into the table.
func (st *extractCtx) extractGroup(g *group, z string, spec ExtractSpec, pts []point) ([]point, Series, bool, error) {
	if g.rows == nil && st.sel == nil && st.ranges == nil && spec.Agg == AggNone {
		lo, hi := int(g.lo), int(g.lo+g.n)
		if xs, ys := st.xs[lo:hi:hi], st.ys[lo:hi:hi]; aliasable(xs, ys) {
			return pts, Series{Z: z, X: xs, Y: ys}, true, nil
		}
	}
	pts = pts[:0]
	appendRange := func(start, end int) {
		for k := start; k < end; k++ {
			row := g.row(k)
			if !selected(st.sel, row) {
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
		appendRange(0, int(g.n))
	} else {
		// Disjoint ascending windows over a group sorted by x: each
		// binary-searches to its sub-range, and visiting them in order
		// preserves the global (x, row) order.
		for _, r := range st.ranges {
			lo := searchRun(g, st.xs, 0, func(x float64) bool { return x >= r[0] })
			hi := searchRun(g, st.xs, lo, func(x float64) bool { return x > r[1] })
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
// into a Series; duplicate x values under AggNone are an error.
func buildSeries(z string, pts []point, spec ExtractSpec) (Series, error) {
	s := Series{Z: z, X: make([]float64, 0, len(pts)), Y: make([]float64, 0, len(pts))}
	for i := 0; i < len(pts); {
		j := i
		for j < len(pts) && pts[j].x == pts[i].x {
			j++
		}
		if j-i > 1 && spec.Agg == AggNone {
			return Series{}, fmt.Errorf("dataset: multiple y values at %s=%q, %s=%v; specify an aggregation",
				spec.Z, z, spec.X, pts[i].x)
		}
		s.X = append(s.X, pts[i].x)
		s.Y = append(s.Y, aggregate(pts[i:j], spec.Agg))
		i = j
	}
	return s, nil
}

// aliasable reports whether a run's x and y are its AggNone series bit for
// bit: x strictly increases (a repeated x is an error), and every y is
// finite and not −0, which aggregate's zero sum turns into +0.
func aliasable(xs, ys []float64) bool {
	for k, y := range ys {
		if !finite(y) || y == 0 && math.Signbit(y) || k > 0 && xs[k] <= xs[k-1] {
			return false
		}
	}
	return true
}

// searchRun returns the first position of g at or after start whose x
// satisfies past, a predicate that holds from some x on.
func searchRun(g *group, xs []float64, start int, past func(x float64) bool) int {
	return start + sort.Search(int(g.n)-start, func(k int) bool { return past(xs[g.row(start+k)]) })
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
