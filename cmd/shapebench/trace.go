package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"time"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/shape"
)

// span is one timed call into a layer during the traced replay. Spans of
// one request share Req; Parent indexes the enclosing span (-1 for a
// request's root, or for work outside any request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// scoreCount records the counters of one scoring call.
type scoreCount struct {
	candidates int
	// stats is set for single-query runs over a shape index, the only runs
	// that report how much of the corpus they visited.
	stats      *executor.IndexStats
	allocBytes uint64
}

// tracer keeps spans in memory. A nil tracer records nothing, so the replay
// runs the same code with tracing on and off.
type tracer struct {
	t0     time.Time
	req    int
	spans  []span
	counts []scoreCount
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), req: -1, allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.t0)), Parent: parent, Req: tr.req})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	tr.spans[id].End = int64(time.Since(tr.t0))
}

// allocated reads the process's cumulative heap allocation.
func (tr *tracer) allocated() uint64 {
	if tr == nil {
		return 0
	}
	metrics.Read(tr.allocs)
	return tr.allocs[0].Value.Uint64()
}

// rebuildThreshold mirrors the server's default shape-index staleness past
// which an append rebuilds a cached candidate set's index.
const rebuildThreshold = 1024

// indexMinVizs mirrors the server's candidate count from which a cached
// candidate set carries a shape index.
const indexMinVizs = 256

// candidateCapacity mirrors the server's default candidate-cache size.
const candidateCapacity = 64

// entry is one cached candidate set of the replica.
type entry struct {
	key   string
	ds    string
	vizs  []*executor.Viz
	index *executor.VizIndex
	espec dataset.ExtractSpec
	plan  *executor.Plan
	zpos  map[string]int
}

// replica runs a search or an append the way the server does, calling
// each layer's public function directly and recording a span around every
// call: parse, normalize and compile through a plan cache, extract, group
// and index build through an LRU candidate cache, scoring, and for appends
// CSV parsing, index append and candidate-set patching. Background index
// rebuilds run inline.
type replica struct {
	tr    *tracer
	nl    *nlparser.Parser
	ix    map[string]*dataset.Index
	plans map[string]*executor.Plan
	order *list.List // of *entry, most recently used first
	cache map[string]*list.Element
	// searched is the searched dataset. Only its candidate sets are
	// evicted: the side tick stream's stays cached, so that every
	// workload's replay runs the whole append path, although in drill the
	// server's cache evicts it.
	searched string
}

// newReplica indexes the tables, timing the index build of the searched
// one.
func newReplica(tr *tracer, tables map[string]*dataset.Table, searched string) *replica {
	rp := &replica{
		tr:       tr,
		nl:       nlparser.NewParser(),
		ix:       make(map[string]*dataset.Index),
		plans:    make(map[string]*executor.Plan),
		order:    list.New(),
		cache:    make(map[string]*list.Element),
		searched: searched,
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		id := -1
		if name == searched {
			id = tr.begin("dataset.BuildIndex", -1)
		}
		rp.ix[name] = dataset.BuildIndex(tables[name])
		tr.end(id)
	}
	return rp
}

// search runs one search request under a root span.
func (rp *replica) search(ctx context.Context, r searchReq) error {
	root := rp.tr.begin("search", -1)
	defer rp.tr.end(root)
	ix, ok := rp.ix[r.Dataset]
	if !ok {
		return fmt.Errorf("replica has no dataset %q", r.Dataset)
	}
	spec := r.extractSpec()
	opts := executor.DefaultOptions()
	opts.K = r.K
	opts.Pruning = r.Pruning
	qs := r.queries()
	plans := make([]*executor.Plan, len(qs))
	for i, q := range qs {
		sq, err := parseQuery(rp.tr, root, rp.nl, q)
		if err != nil {
			return err
		}
		if plans[i], err = rp.plan(sq, opts, root); err != nil {
			return err
		}
	}
	// Queries sharing a candidate set are scored in one pass, as the server
	// groups a batch.
	groups := make(map[string][]*executor.Plan)
	var order []string
	for _, p := range plans {
		k := p.CandidateKey(spec)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	for _, k := range order {
		group := groups[k]
		e, err := rp.fetch(ix, r.Dataset, group[0], spec, root)
		if err != nil {
			return err
		}
		if err := rp.score(ctx, e, group, len(qs) == 1, root); err != nil {
			return err
		}
	}
	return nil
}

// plan serves a compiled plan through the plan cache, keyed by the
// normalized query's fingerprint and the options that change scores.
func (rp *replica) plan(sq shape.Query, opts executor.Options, parent int) (*executor.Plan, error) {
	id := rp.tr.begin("shape.Normalize", parent)
	norm, err := shape.Normalize(sq)
	var fp string
	if err == nil {
		fp = norm.Fingerprint()
	}
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%d\x00%t\x00%s", opts.K, opts.Pruning, fp)
	if p, ok := rp.plans[key]; ok {
		return p, nil
	}
	defer rp.tr.end(rp.tr.begin("executor.Compile", parent))
	p, err := executor.Compile(sq, opts)
	if err != nil {
		return nil, err
	}
	rp.plans[key] = p
	return p, nil
}

// fetch serves a plan's candidate set through the LRU candidate cache.
func (rp *replica) fetch(ix *dataset.Index, ds string, p *executor.Plan, spec dataset.ExtractSpec, parent int) (*entry, error) {
	key := ds + "\x00" + p.CandidateKey(spec)
	if el, ok := rp.cache[key]; ok {
		rp.order.MoveToFront(el)
		return el.Value.(*entry), nil
	}
	e := &entry{key: key, ds: ds, espec: p.EffectiveSpec(spec), plan: p}
	if err := rp.build(ix, e, parent); err != nil {
		return nil, err
	}
	rp.cache[key] = rp.order.PushFront(e)
	for rp.order.Len() > candidateCapacity {
		el := rp.order.Back()
		for el.Value.(*entry).ds != rp.searched {
			el = el.Prev()
		}
		old := rp.order.Remove(el).(*entry)
		delete(rp.cache, old.key)
	}
	return e, nil
}

// build extracts, groups and indexes an entry's candidates from scratch.
func (rp *replica) build(ix *dataset.Index, e *entry, parent int) error {
	id := rp.tr.begin("dataset.Index.Extract", parent)
	series, err := ix.Extract(e.espec)
	rp.tr.end(id)
	if err != nil {
		return err
	}
	id = rp.tr.begin("executor.GroupSeries", parent)
	e.vizs = e.plan.GroupSeries(series)
	rp.tr.end(id)
	e.zpos = make(map[string]int, len(e.vizs))
	for i, v := range e.vizs {
		e.zpos[v.Series.Z] = i
	}
	e.index = nil
	if len(e.vizs) >= indexMinVizs {
		defer rp.tr.end(rp.tr.begin("executor.BuildVizIndex", parent))
		e.index = executor.BuildVizIndex(e.vizs, 0)
	}
	return nil
}

// score runs the plans of one candidate group, recording counters.
func (rp *replica) score(ctx context.Context, e *entry, group []*executor.Plan, single bool, parent int) error {
	before := rp.tr.allocated()
	id := rp.tr.begin("executor.Run", parent)
	c := scoreCount{candidates: len(e.vizs)}
	var err error
	switch {
	case len(group) == 1 && e.index != nil:
		var st executor.IndexStats
		_, err = group[0].RunIndexedStatsContext(ctx, e.index, &st)
		if single {
			c.stats = &st
		}
	case len(group) == 1:
		_, err = group[0].RunGroupedContext(ctx, e.vizs)
	default:
		var mp *executor.MultiPlan
		if mp, err = executor.NewMultiPlan(group); err != nil {
			break
		}
		if e.index != nil {
			_, err = mp.RunIndexedContext(ctx, e.index)
		} else {
			_, err = mp.RunGroupedContext(ctx, e.vizs)
		}
	}
	rp.tr.end(id)
	if rp.tr != nil {
		c.allocBytes = rp.tr.allocated() - before
		rp.tr.counts = append(rp.tr.counts, c)
	}
	return err
}

// appendCSV applies one CSV batch under a root span and patches every
// cached candidate set of the dataset, as the server's append path does.
func (rp *replica) appendCSV(ds string, body []byte) error {
	root := rp.tr.begin("append", -1)
	defer rp.tr.end(root)
	ix, ok := rp.ix[ds]
	if !ok {
		return fmt.Errorf("replica has no dataset %q", ds)
	}
	id := rp.tr.begin("dataset.FromCSVSchema", root)
	delta, err := dataset.FromCSVSchema(bytes.NewReader(body), ix.Table())
	rp.tr.end(id)
	if err != nil {
		return err
	}
	id = rp.tr.begin("dataset.Index.Append", root)
	err = ix.Append(delta)
	rp.tr.end(id)
	if err != nil {
		return err
	}
	for el := rp.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.ds == ds {
			if err := rp.patch(ix, e, delta, root); err != nil {
				return err
			}
			if !e.plan.PinFree() {
				// A pinned plan's candidates depend on the whole collection:
				// the server drops the entry instead of patching it.
				rp.order.Remove(el)
				delete(rp.cache, e.key)
			}
		}
		el = next
	}
	return nil
}

// patch re-extracts and regroups the z groups a delta touched and updates
// the entry's shape index, rebuilding it once it is stale.
func (rp *replica) patch(ix *dataset.Index, e *entry, delta *dataset.Table, parent int) error {
	if !e.plan.PinFree() {
		return nil
	}
	touched, err := delta.DistinctValues(e.espec.Z)
	if err != nil {
		return err
	}
	id := rp.tr.begin("dataset.Index.ExtractGroups", parent)
	series, err := ix.ExtractGroups(e.espec, touched)
	rp.tr.end(id)
	if err != nil {
		return err
	}
	id = rp.tr.begin("executor.GroupSeries", parent)
	vizs := append([]*executor.Viz(nil), e.vizs...)
	var changed []int
	fresh := true
	for _, s := range series {
		vs := e.plan.GroupSeries([]dataset.Series{s})
		p, ok := e.zpos[s.Z]
		if len(vs) != 1 || !ok {
			fresh = false // a new or vanished group: rebuild below
			break
		}
		vizs[p] = vs[0]
		changed = append(changed, p)
	}
	rp.tr.end(id)
	if !fresh {
		return rp.build(ix, e, parent)
	}
	e.vizs = vizs
	if e.index == nil {
		return nil
	}
	id = rp.tr.begin("executor.VizIndex.Update", parent)
	e.index = e.index.Update(vizs, changed)
	rp.tr.end(id)
	if e.index.Staleness() >= rebuildThreshold {
		defer rp.tr.end(rp.tr.begin("executor.BuildVizIndex", parent))
		e.index = executor.BuildVizIndex(vizs, 0)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// replayAppends is how many appends the traced run replays: enough for the
// tick stream's cached candidate set to cross the rebuild threshold once.
func replayAppends(sz sizes) int { return rebuildThreshold/sz.batchRows + 64 }

// layerSpans maps each per-layer time metric to the span it averages, per
// call, and the unit it is reported in.
var layerSpans = []struct {
	metric, span string
	kind         opKind
	scale        time.Duration
}{
	{"regexlang.parse_us", "regexlang.Parse", opSearch, time.Microsecond},
	{"nlparser.parse_us", "nlparser.Parse", opSearch, time.Microsecond},
	{"sketch.infer_us", "sketch.BlurryQuery", opSearch, time.Microsecond},
	{"shape.normalize_us", "shape.Normalize", opSearch, time.Microsecond},
	{"executor.compile_us", "executor.Compile", opSearch, time.Microsecond},
	{"dataset.extract_ms", "dataset.Index.Extract", opSearch, time.Millisecond},
	{"executor.group_ms", "executor.GroupSeries", opSearch, time.Millisecond},
	{"executor.index_build_ms", "executor.BuildVizIndex", opSearch, time.Millisecond},
	{"executor.score_ms", "executor.Run", opSearch, time.Millisecond},
	{"dataset.csv_parse_ms", "dataset.FromCSVSchema", opAppend, time.Millisecond},
	{"dataset.append_ms", "dataset.Index.Append", opAppend, time.Millisecond},
	{"dataset.extract_groups_ms", "dataset.Index.ExtractGroups", opAppend, time.Millisecond},
	{"executor.index_update_ms", "executor.VizIndex.Update", opAppend, time.Millisecond},
	{"executor.index_rebuild_ms", "executor.BuildVizIndex", opAppend, time.Millisecond},
}

// traced replays the setup requests and the first sizes.replay searches and
// replayAppends appends of the sequence three times over, one op at a
// time: in process with spans off, in process with spans on, and over HTTP
// to a freshly set-up server. It derives the per-layer metrics from the
// spans, the tracing overhead from the two in-process replays, and the
// server's own time from the HTTP one.
func (r *run) traced(ctx context.Context) error {
	ops := r.schedule(r.cfg.sizes.replay, replayAppends(r.cfg.sizes))
	tables := func() map[string]*dataset.Table {
		t := map[string]*dataset.Table{ticksName: r.in.ticks()}
		if r.mainTbl != nil {
			t[r.in.vis.dataset] = r.mainTbl
		}
		return t
	}
	tr := newTracer()
	off := newReplica(nil, tables(), r.in.vis.dataset)
	on := newReplica(tr, tables(), r.in.vis.dataset)
	ts := httptest.NewServer(r.newServer(r.in.ticks()))
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	send := func(o *op) error {
		var s sample
		c.do(ctx, o, &s)
		if !s.ok() {
			return fmt.Errorf("%s %d over HTTP: status %d: %s", kindName(o.Kind), o.Seq, s.Status, s.Err)
		}
		return nil
	}
	replay := func(rp *replica, o *op) error {
		if o.Kind == opAppend {
			return rp.appendCSV(ticksName, o.Body)
		}
		return rp.search(ctx, r.in.search(o.Seq))
	}
	ways := []func(o *op) error{
		func(o *op) error { return replay(off, o) },
		func(o *op) error { return replay(on, o) },
		send,
	}
	for i, q := range r.setupReq {
		tr.req = i
		b, err := json.Marshal(q)
		if err == nil {
			err = errors.Join(off.search(ctx, q), on.search(ctx, q), send(&op{Kind: opSearch, Path: "/api/search", Body: b}))
		}
		if err != nil {
			return err
		}
	}
	// The three replays of an op do the same work, so comparing them op by
	// op is not moved by a stall or a drift in machine speed. An op runs
	// faster the second and third time, so which replay goes first rotates.
	took := make([][3]time.Duration, len(ops))
	for i := range ops {
		tr.req = len(r.setupReq) + i
		for k := range ways {
			w := (i + k) % len(ways)
			t0 := time.Now()
			if err := ways[w](&ops[i]); err != nil {
				return fmt.Errorf("replaying op %d: %w", i, err)
			}
			took[i][w] = time.Since(t0)
		}
	}
	ratios := make([]float64, len(ops))
	serial := make([]time.Duration, len(ops))
	for i, t := range took {
		ratios[i] = float64(t[1]) / float64(max(t[0], 1))
		serial[i] = t[2]
	}
	r.out.Metrics["trace.overhead_frac"] = median(ratios) - 1
	r.layerMetrics(tr, ops, serial)
	if r.cfg.spans != nil {
		line, err := json.Marshal(struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Spans    []span `json:"spans"`
		}{r.w.name, r.cfg.seed, tr.spans})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(r.cfg.spans, "%s\n", line); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics from a traced replay and the
// serial HTTP latencies of the same ops.
func (r *run) layerMetrics(tr *tracer, ops []op, serial []time.Duration) {
	m := r.out.Metrics
	base := len(r.setupReq)
	kindOf := func(req int) opKind {
		if req >= base {
			return ops[req-base].Kind
		}
		return opSearch
	}
	self := selfTimes(tr.spans)
	type agg struct {
		sum time.Duration
		n   int
	}
	calls := map[string]*agg{}
	var build agg
	layer := make([]time.Duration, len(ops)) // time in layer calls, per op
	root := make([]time.Duration, len(ops))
	for i, sp := range tr.spans {
		d := time.Duration(sp.End - sp.Start)
		switch {
		case sp.Req < 0:
			build.sum += d
			build.n++
			continue
		case sp.Parent < 0:
			if sp.Req >= base {
				root[sp.Req-base] = d
			}
			continue
		}
		if tr.spans[sp.Parent].Parent < 0 && sp.Req >= base {
			layer[sp.Req-base] += d
		}
		key := fmt.Sprintf("%s/%d", sp.Name, kindOf(sp.Req))
		a := calls[key]
		if a == nil {
			a = &agg{}
			calls[key] = a
		}
		a.sum += time.Duration(self[i])
		a.n++
	}
	for _, ls := range layerSpans {
		if a := calls[fmt.Sprintf("%s/%d", ls.span, ls.kind)]; a != nil {
			m[ls.metric] = float64(a.sum) / float64(a.n) / float64(ls.scale)
		}
	}
	m["dataset.build_index_ms"] = float64(build.sum) / float64(max(build.n, 1)) / float64(time.Millisecond)

	var cands, visited, scored, allocs float64
	for _, c := range tr.counts {
		cands += float64(c.candidates)
		allocs += float64(c.allocBytes)
		if c.stats != nil {
			visited += float64(c.stats.Visited)
			scored += float64(c.stats.Scored)
		}
	}
	var indexed float64
	for _, c := range tr.counts {
		if c.stats != nil {
			indexed += float64(c.stats.Candidates)
		}
	}
	n := float64(max(len(tr.counts), 1))
	m["executor.candidates"] = cands / n
	m["executor.score_alloc_kb"] = allocs / n / 1024
	if indexed > 0 {
		m["executor.visited_frac"] = visited / indexed
		m["executor.scored_frac"] = scored / indexed
	}

	// The layers' share of each search's unloaded latency; the rest is the
	// server's own: HTTP, JSON, admission and cache bookkeeping.
	var httpSum, layerSum, rootSum time.Duration
	var httpMS []float64
	searches := 0
	for i, o := range ops {
		if o.Kind != opSearch {
			continue
		}
		searches++
		httpSum += serial[i]
		layerSum += layer[i]
		rootSum += root[i]
		httpMS = append(httpMS, ms(serial[i]))
	}
	sort.Float64s(httpMS)
	k := float64(max(searches, 1))
	m["server.self_ms"] = ms(httpSum-layerSum) / k
	m["serial.search_p50_ms"] = percentile(httpMS, 50)
	m["serial.search_mean_ms"] = ms(httpSum) / k
	m["trace.layers_ms"] = ms(layerSum) / k
	m["trace.bookkeeping_ms"] = ms(rootSum-layerSum) / k
	m["server.wait_p50_ms"] = m["search_p50_ms"] - m["serial.search_p50_ms"]
}
