package main

import (
	"bytes"
	"fmt"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/shape"
)

// query is one query of a search request in the server's wire form.
type query struct {
	Kind   string        `json:"kind,omitempty"`
	Query  string        `json:"query,omitempty"`
	Sketch []shape.Point `json:"sketch,omitempty"`
}

// filter is one row filter in the server's wire form.
type filter struct {
	Col string  `json:"col"`
	Op  string  `json:"op"`
	Num float64 `json:"num"`
}

// searchReq is the body of POST /api/search: one query (the embedded
// fields) or a batch (Queries) over one visual specification.
type searchReq struct {
	query
	Queries []query  `json:"queries,omitempty"`
	Dataset string   `json:"dataset"`
	Z       string   `json:"z"`
	X       string   `json:"x"`
	Y       string   `json:"y"`
	Agg     string   `json:"agg,omitempty"`
	Filters []filter `json:"filters,omitempty"`
	K       int      `json:"k"`
	Pruning bool     `json:"pruning,omitempty"`
}

// queries lists the request's queries: the batch, or the single query.
func (r searchReq) queries() []query {
	if len(r.Queries) > 0 {
		return r.Queries
	}
	return []query{r.query}
}

// extractSpec is the request's visual specification as the executor sees it.
func (r searchReq) extractSpec() dataset.ExtractSpec {
	spec := dataset.ExtractSpec{Z: r.Z, X: r.X, Y: r.Y}
	if r.Agg == "avg" {
		spec.Agg = dataset.AggAvg
	}
	for _, f := range r.Filters {
		// Only the "price > t" filter of the drill workload is generated.
		spec.Filters = append(spec.Filters, dataset.Filter{Col: f.Col, Op: dataset.Gt, Num: f.Num})
	}
	return spec
}

// visual names the searched dataset and its attributes.
type visual struct {
	dataset, z, x, y, agg string
}

// class is one kind of search request: its queries and whether pruning is
// on. Requests of one class differ at most in the drill filter.
type class struct {
	queries []query
	pruning bool
}

// mix is a workload's request mix. Requests come in blocks of eight slots:
// five regex queries, one natural-language query, one sketch and one
// four-query batch, in an order the seed shuffles per block. One regex
// slot per block has pruning off (none when allPruned is set).
type mix struct {
	regex     []string
	nl        []string
	sketches  [][]shape.Point
	batch     []string
	allPruned bool
}

// slotKinds lists the eight slots of a block before shuffling.
var slotKinds = [8]byte{'r', 'r', 'r', 'r', 'r', 'n', 's', 'b'}

// classes enumerates every distinct class the mix can produce, in a fixed
// order; setup sends one request of each.
func (m mix) classes() []class {
	var out []class
	for _, pr := range []bool{true, false} {
		if !pr && m.allPruned {
			continue
		}
		for _, q := range m.regex {
			out = append(out, class{queries: []query{{Kind: "regex", Query: q}}, pruning: pr})
		}
		for _, q := range m.nl {
			out = append(out, class{queries: []query{{Kind: "nl", Query: q}}, pruning: pr})
		}
		for _, s := range m.sketches {
			out = append(out, class{queries: []query{{Kind: "sketch", Sketch: s}}, pruning: pr})
		}
		out = append(out, class{queries: m.batchQueries(), pruning: pr})
	}
	return out
}

func (m mix) batchQueries() []query {
	qs := make([]query, len(m.batch))
	for i, q := range m.batch {
		qs[i] = query{Kind: "regex", Query: q}
	}
	return qs
}

// pick returns the class of request i of the seeded sequence and its
// place, its position before the seed shuffled its block. The queries of
// each kind cycle in order, so that every seed sends each class equally
// often: the heaviest class sets the p99, and a seed that sent it more
// often would read slower.
func (m mix) pick(seed int64, i int) (c class, place int) {
	block, pos := i/len(slotKinds), i%len(slotKinds)
	slot := blockPerm(seed, block)[pos]
	c.pruning = m.allPruned || slot != 0
	switch slotKinds[slot] {
	case 'r':
		c.queries = []query{{Kind: "regex", Query: m.regex[(block+slot)%len(m.regex)]}}
	case 'n':
		c.queries = []query{{Kind: "nl", Query: m.nl[block%len(m.nl)]}}
	case 's':
		c.queries = []query{{Kind: "sketch", Sketch: m.sketches[block%len(m.sketches)]}}
	default:
		c.queries = m.batchQueries()
	}
	return c, block*len(slotKinds) + slot
}

// blockPerm is a seeded permutation of the slots of one block.
func blockPerm(seed int64, block int) [8]int {
	var p [8]int
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := int(hash(seed, int64(block), int64(100+i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// hash mixes a seed and two indexes into 64 well-spread bits (splitmix64),
// so any request of the sequence is generated without replaying the ones
// before it.
func hash(seed, a, b int64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(a)*0xbf58476d1ce4e5b9 ^ uint64(b)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sizes holds every size a workload depends on, so tests can run the same
// workloads at toy size.
type sizes struct {
	stocks, days         int // explore and drill table
	corpus, corpusPoints int // corpus table
	ticks, tickPoints    int // tick stream's base table
	batchRows            int // rows per appended batch
	replay               int // searches the traced run replays
}

// fullSizes keep the server's one core a fifth to two fifths busy at the
// workloads' rates. The busier a core, the longer a burst of requests
// keeps it busy, so at half busy the p99s moved with the machine's speed
// by twice as much as the medians did. A 27-second run appends three
// fifths as many rows to the tick stream as its base table holds. The tick
// stream keeps more series than the 256 from which the server builds a
// shape index, so appends update one.
var fullSizes = sizes{
	stocks: 300, days: 12,
	corpus: 10_000, corpusPoints: 32,
	ticks: 300, tickPoints: 8,
	batchRows: 1,
	replay:    200,
}

// toySizes keep every candidate set above the shape-index threshold, so
// a toy run passes through every layer a full one does.
var toySizes = sizes{
	stocks: 300, days: 12,
	corpus: 600, corpusPoints: 12,
	ticks: 300, tickPoints: 8,
	batchRows: 2,
	replay:    40,
}

// ticksName is the dataset every workload appends to. In ingest it is also
// the searched dataset; elsewhere it sits beside it, with one cached
// candidate set that every append patches.
const ticksName = "ticks"

// tickVisual searches the tick stream; avg folds late points that land on
// an x already present.
var tickVisual = visual{dataset: ticksName, z: "z", x: "x", y: "y", agg: "avg"}

// tickClass is the search setup sends to the side tick stream, so that its
// candidate set is cached and appends have an entry to patch.
var tickClass = class{queries: []query{{Kind: "regex", Query: "u ; d"}}, pruning: true}

// workload is one traffic mix against one server.
type workload struct {
	name string
	// why is the one-line reason the workload exists, as in BENCHMARK.json.
	why        string
	searchRate float64 // open-loop searches per second
	appendRate float64 // open-loop appends per second
	// build generates the inputs for a seed, with appends batches for the
	// append stream.
	build func(seed int64, sz sizes, appends int) *inputs
}

// inputs is everything a workload sends, generated from its seed: the
// server receives only these tables and requests.
type inputs struct {
	seed int64
	vis  visual
	mix  mix
	// main builds the searched table; nil when the tick stream is searched.
	// Nothing is appended to it, so one copy serves every setup.
	main func() *dataset.Table
	// ticks builds a fresh copy of the tick stream's base table.
	ticks func() *dataset.Table
	// batches are the appended deltas in schedule order, with their CSV
	// bodies.
	batches []*dataset.Table
	csv     [][]byte
	// thresholds, when set, give every request a "price > t" filter.
	thresholds []float64
}

// search returns request i of the seeded sequence.
func (in *inputs) search(i int) searchReq {
	return in.request(in.mix.pick(in.seed, i))
}

// request renders one request of class c; place selects the drill
// threshold.
func (in *inputs) request(c class, place int) searchReq {
	r := searchReq{
		Dataset: in.vis.dataset, Z: in.vis.z, X: in.vis.x, Y: in.vis.y, Agg: in.vis.agg,
		K: 10, Pruning: c.pruning,
	}
	if len(c.queries) == 1 {
		r.query = c.queries[0]
	} else {
		r.Queries = c.queries
	}
	if n := len(in.thresholds); n > 0 {
		// Successive places step through the thresholds by about 0.618 of
		// their count from a seeded start. A place is a request's position
		// before its block was shuffled, so every class sweeps the range
		// evenly, and the candidate counts the thresholds set average the
		// same on every seed.
		k := (int(hash(in.seed, 0, 2)%uint64(n)) + place*(n*618/1000)) % n
		r.Filters = []filter{{Col: "price", Op: ">", Num: in.thresholds[k]}}
	}
	return r
}

// tickRequest renders a search of the side tick stream.
func tickRequest(c class) searchReq {
	in := inputs{vis: tickVisual}
	return in.request(c, 0)
}

// withTicks adds the tick stream: base table, nBatches appended deltas of
// sz.batchRows rows each, and their CSV bodies. Late points land between
// earlier ones, as ticks delivered out of order do.
func (in *inputs) withTicks(sz sizes, nBatches int) {
	seed := in.seed
	in.ticks = func() *dataset.Table {
		base, _ := gen.StreamTicks(sz.ticks, sz.tickPoints, 0, 0, seed, false)
		return base
	}
	_, in.batches = gen.StreamTicks(sz.ticks, sz.tickPoints, nBatches, sz.batchRows, seed, false)
	in.csv = make([][]byte, len(in.batches))
	for i, b := range in.batches {
		var buf bytes.Buffer
		if err := b.WriteCSV(&buf); err != nil {
			panic(err) // writing to a bytes.Buffer cannot fail
		}
		in.csv[i] = buf.Bytes()
	}
}

// sketchPeaks draws the two sketches used by every mix over x in [0, xmax]:
// a single peak and a W.
func sketchPeaks(xmax float64) [][]shape.Point {
	return [][]shape.Point{
		{{X: 0, Y: 0}, {X: xmax / 2, Y: 10}, {X: xmax, Y: 0}},
		{{X: 0, Y: 10}, {X: xmax / 4, Y: 0}, {X: xmax / 2, Y: 8}, {X: 3 * xmax / 4, Y: 0}, {X: xmax, Y: 10}},
	}
}

// exploreMix is the ad-hoc exploration mix of the explore, drill and ingest
// workloads over x in [0, xmax].
func exploreMix(xmax float64) mix {
	mid := float64(int(xmax * 0.4))
	return mix{
		regex: []string{
			"u ; d",
			"u ; d ; u",
			"u ; d ; u ; d",
			"u ; d ; u ; d ; u",
			"u ; d ; u ; d ; u ; d",
			"u? ; d ; u? ; d ; u?",
			"(u ; d) | (d ; u)",
			fmt.Sprintf("[x.s=0, x.e=%g, p=up] ; [x.s=%g, x.e=%g, p=down]", mid, mid, xmax),
		},
		nl:       []string{"rising then falling", "falling then rising then falling"},
		sketches: sketchPeaks(xmax),
		batch:    []string{"u ; d", "d ; u", "u ; d ; u", "d ; u ; d"},
	}
}

// ingestMix is the explore mix without its two costliest queries, the
// six-segment and the fuzzy one: over a table that grows through the run
// they would keep the core more than half busy at the append rate.
func ingestMix(xmax float64) mix {
	m := exploreMix(xmax)
	m.regex = append(m.regex[:4:4], m.regex[6:]...)
	return m
}

// corpusMix is the pruned zigzag mix of the corpus workload.
func corpusMix(xmax float64) mix {
	return mix{
		regex:     []string{"u ; d ; u ; d", "u ; d ; u", "d ; u ; d ; u", "u ; d"},
		nl:        []string{"rising then falling then rising then falling"},
		sketches:  sketchPeaks(xmax),
		batch:     []string{"u ; d ; u ; d", "d ; u ; d ; u", "u ; d ; u", "d ; u ; d"},
		allPruned: true,
	}
}

var stocksVisual = visual{dataset: "stocks", z: "symbol", x: "day", y: "price"}

// workloads are the benchmark's traffic mixes. The open-loop phase of a
// 27-second run lasts about 23 seconds, so 45 per second records the 1000
// searches and appends a p99 needs.
//
// The server makes an append wait while a search runs, so the append
// median is an append's own time while searches hold the core less than
// half the time, and jumps to the rest of a search once they hold it more.
// At 70 searches per second the server's core was two fifths busy, and in
// the minutes when the machine ran half as fast again, searches held it
// more than half the time: the append median then read up to seven times
// its usual value. These rates keep the core about a fifth busy. Appends
// run at a rate of their own: at the searches' rate each would arrive the
// same time after a search, its latency would be that search's less a
// fixed offset, and its p99 moved three times as much as the search p99.
var workloads = []workload{
	{
		name:       "explore",
		why:        "repeated ad-hoc queries on one visual spec: the candidate cache always hits, so scoring dominates",
		searchRate: 45, appendRate: 60,
		build: func(seed int64, sz sizes, appends int) *inputs {
			in := &inputs{seed: seed, vis: stocksVisual, mix: exploreMix(float64(sz.days - 1))}
			in.main = func() *dataset.Table { return gen.Stocks(sz.stocks, sz.days, seed) }
			in.withTicks(sz, appends)
			return in
		},
	},
	{
		name:       "drill",
		why:        "every request carries a distinct filter, so the candidate cache misses and extract, group and index build run",
		searchRate: 45, appendRate: 60,
		build: func(seed int64, sz sizes, appends int) *inputs {
			in := &inputs{seed: seed, vis: stocksVisual, mix: exploreMix(float64(sz.days - 1))}
			in.main = func() *dataset.Table { return gen.Stocks(sz.stocks, sz.days, seed) }
			in.withTicks(sz, appends)
			// 997 thresholds: far more distinct keys than the 64-entry
			// candidate cache holds. The range makes the candidate count
			// cross the 256-candidate shape-index threshold.
			in.thresholds = make([]float64, 997)
			for i := range in.thresholds {
				in.thresholds[i] = 10 + float64(i)*0.2
			}
			return in
		},
	},
	{
		name:       "corpus",
		why:        "pruned zigzag queries over 10,000 series: the shape index skips most candidates, so traversal and per-request overhead dominate",
		searchRate: 70, appendRate: 60,
		build: func(seed int64, sz sizes, appends int) *inputs {
			in := &inputs{seed: seed, vis: visual{dataset: "corpus", z: "z", x: "x", y: "y"}, mix: corpusMix(float64(sz.corpusPoints - 1))}
			in.main = func() *dataset.Table { return corpusTable(sz.corpus, sz.corpusPoints, seed) }
			in.withTicks(sz, appends)
			return in
		},
	},
	{
		name:       "ingest",
		why:        "appends and searches on one dataset: the write path beside the read path",
		searchRate: 45, appendRate: 60,
		build: func(seed int64, sz sizes, appends int) *inputs {
			in := &inputs{seed: seed, vis: tickVisual, mix: ingestMix(float64(sz.tickPoints - 1))}
			in.withTicks(sz, appends)
			return in
		},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpusTable renders gen.DriftPeaksSeries as a z, x, y table.
func corpusTable(series, points int, seed int64) *dataset.Table {
	ss := gen.DriftPeaksSeries(series, points, 64, seed)
	n := series * points
	zs := make([]string, 0, n)
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for _, s := range ss {
		for i := range s.X {
			zs = append(zs, s.Z)
			xs = append(xs, s.X[i])
			ys = append(ys, s.Y[i])
		}
	}
	t, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		panic(err) // columns are built with equal lengths
	}
	return t
}
