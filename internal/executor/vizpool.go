package executor

import (
	"math"
	"sync"
	"weak"

	"shapesearch/internal/dataset"
)

// VizPool shares grouped charts across candidate sets. A Viz is a pure
// function of its series (z, x bits, y bits) and the GROUP configuration,
// so a series whose content and configuration equal a live pooled chart's
// gets that same *Viz back (GroupSeriesPooled), together with the prefix
// sums, slope statistics, memoized fields and kept range-angle table
// already built on it. Only misses run group.
//
// The pool holds its charts through weak pointers: an entry lives exactly
// as long as something else — a cached candidate set, a running request —
// holds its Viz. It therefore needs no capacity, and no invalidation on a
// dataset upload or append, since equal content means an equal Viz
// whatever data it came from. Dead entries are freed when a lookup of
// their z passes them, and by an incremental sweep that each insert pass
// advances (see sweep).
//
// The zero value is ready to use, and a VizPool is safe for concurrent use.
// Its mutex is a leaf lock: nothing else is acquired while it is held, and
// grouping runs outside it. The series a pooled chart was grouped from must
// not be mutated afterwards, as for any grouped chart.
type VizPool struct {
	mu sync.Mutex
	// heads maps each z value to the slab index of its first entry.
	heads map[string]int32
	// slab holds the entries, about 40 bytes each beside the 8-byte weak
	// handle: no allocation per chart beyond the handle. A z value's
	// entries chain through next; free lists the slots that hold none.
	slab []pooledViz
	free []int32
	// cursor is the slab slot the sweep visits next. The sweep walks the
	// slab, never the map: the floatdeterminism analyzer bans map ranging
	// in this package.
	cursor int
	// inserts counts insert passes. A fill whose lookup and insert passes
	// saw the same count knows no other fill pooled a chart in between, so
	// its misses need no second probe.
	inserts uint64
}

// pooledViz is one pooled chart, its z, and the GROUP configuration it was
// built under (shared by every chart of one insert pass). A free slot has
// a nil cfg.
type pooledViz struct {
	z    string
	cfg  *groupConfig
	v    weak.Pointer[Viz]
	next int32 // the next entry of z's chain; −1 ends it
}

// GroupSeriesPooled is GroupSeries through a chart pool: each series whose
// content and GROUP configuration equal a live pooled Viz's gets that Viz,
// and only the others are grouped, then pooled. The result equals
// GroupSeries' field by field and bit for bit; a nil pool groups every
// series afresh.
//
// A chart grouped here shares the previous chart's x side when their x
// values match bit for bit (see groupAfter). A pooled hit counts as the
// previous chart: the pool only returns charts grouped under an equal
// configuration.
//
// The pool lock is taken twice per call — once to look up every series,
// once to insert the misses — and never while grouping.
func (p *Plan) GroupSeriesPooled(pool *VizPool, series []dataset.Series) []*Viz {
	series, gcfg := p.groupInput(series)
	vizs := make([]*Viz, len(series))
	var seen uint64
	if pool != nil {
		seen = pool.lookup(series, gcfg, vizs)
	}
	var missed []int
	var prev *Viz
	for i, s := range series {
		if vizs[i] == nil {
			vizs[i] = groupAfter(s, gcfg, prev)
			if pool != nil && vizs[i] != nil {
				if missed == nil {
					missed = make([]int, 0, len(series)-i)
				}
				missed = append(missed, i)
			}
		}
		if vizs[i] != nil {
			prev = vizs[i]
		}
	}
	if len(missed) > 0 {
		pool.insert(vizs, missed, gcfg, seen)
	}
	out := vizs[:0]
	for _, v := range vizs {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// lookup fills vizs[i] with the live pooled chart equal to series[i] under
// cfg, leaving misses nil, and returns the insert count it saw.
func (pl *VizPool) lookup(series []dataset.Series, cfg groupConfig, vizs []*Viz) uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.heads == nil {
		pl.heads = make(map[string]int32, len(series))
	}
	for i := range series {
		vizs[i] = pl.find(series[i].Z, &series[i], cfg)
	}
	return pl.inserts
}

// insert pools the charts at vizs' missed positions. A chart that another
// fill pooled since lookup (the insert count moved) is replaced by that
// fill's, so equal content keeps sharing one Viz. The sweep runs first, so
// it spends no visits on the entries this pass adds; at two live entries
// per chart it keeps the slab near twice the live entries.
func (pl *VizPool) insert(vizs []*Viz, missed []int, cfg groupConfig, seen uint64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.sweep(2 * len(missed))
	if pl.slab == nil {
		pl.slab = make([]pooledViz, 0, len(missed))
	}
	raced := pl.inserts != seen
	pl.inserts++
	for _, i := range missed {
		v := vizs[i]
		if raced {
			if w := pl.find(v.Series.Z, &v.Series, cfg); w != nil {
				vizs[i] = w
				continue
			}
		}
		z := v.Series.Z
		next, ok := pl.heads[z]
		if !ok {
			next = -1
		}
		e := pooledViz{z: z, cfg: &cfg, v: weak.Make(v), next: next}
		if k := len(pl.free); k > 0 {
			slot := pl.free[k-1]
			pl.free = pl.free[:k-1]
			pl.slab[slot] = e
			pl.heads[z] = slot
		} else {
			pl.heads[z] = int32(len(pl.slab))
			pl.slab = append(pl.slab, e)
		}
	}
}

// find returns the live pooled chart of z equal to s under cfg, or nil, and
// frees the dead entries of z it passes. A nil s matches nothing, so the
// call only frees z's dead entries. The caller holds mu.
func (pl *VizPool) find(z string, s *dataset.Series, cfg groupConfig) *Viz {
	i, ok := pl.heads[z]
	if !ok {
		return nil
	}
	prev := int32(-1)
	for i >= 0 {
		e := &pl.slab[i]
		next := e.next
		v := e.v.Value()
		switch {
		case v == nil:
			pl.unlink(prev, i)
		case s != nil && e.cfg.equal(cfg) && sameBits(v.Series.X, s.X) && sameBits(v.Series.Y, s.Y):
			return v
		default:
			prev = i
		}
		i = next
	}
	return nil
}

// unlink frees slot i of its z's chain, whose entry before it is prev (−1
// when i heads the chain). The caller holds mu.
func (pl *VizPool) unlink(prev, i int32) {
	e := &pl.slab[i]
	switch {
	case prev >= 0:
		pl.slab[prev].next = e.next
	case e.next >= 0:
		pl.heads[e.z] = e.next
	default:
		delete(pl.heads, e.z)
	}
	*e = pooledViz{}
	pl.free = append(pl.free, i)
}

// sweep walks the slab from the cursor until it has passed n live entries
// or the whole slab, freeing the dead entries of every z it finds one of.
// Freeing costs no budget: a call's work is its budget plus the entries it
// frees, and each entry is freed once. The caller holds mu.
func (pl *VizPool) sweep(n int) {
	for seen := 0; n > 0 && seen < len(pl.slab); seen++ {
		if pl.cursor >= len(pl.slab) {
			pl.cursor = 0
		}
		e := &pl.slab[pl.cursor]
		pl.cursor++
		switch {
		case e.cfg == nil: // a free slot
		case e.v.Value() != nil:
			n--
		default:
			pl.find(e.z, nil, groupConfig{})
		}
	}
}

// equal reports whether two GROUP configurations are the same bit for bit.
// A nil keepRanges (keep every point) differs from an empty one (skip
// every point).
func (c *groupConfig) equal(d groupConfig) bool {
	if c.zNormalize != d.zNormalize || (c.keepRanges == nil) != (d.keepRanges == nil) || len(c.keepRanges) != len(d.keepRanges) {
		return false
	}
	for i, r := range c.keepRanges {
		if !sameBits(r[:], d.keepRanges[i][:]) {
			return false
		}
	}
	return true
}

// sameBits reports whether two float slices hold the same bits: −0 and +0
// differ, and a NaN equals only a NaN with its payload.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
