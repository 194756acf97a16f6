package main

import (
	"encoding/json"
	"fmt"
	"math"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
	"shapesearch/internal/sketch"
)

// ranking is one query's top-k as the checks compare it: the z order and
// the exact bits of every score. JSON carries float64 scores exactly, so a
// reply decodes to the bits the server computed.
type ranking struct {
	z    []string
	bits []uint64
}

func rankingOf(results []executor.Result) ranking {
	r := ranking{z: make([]string, len(results)), bits: make([]uint64, len(results))}
	for i, res := range results {
		r.z[i], r.bits[i] = res.Z, math.Float64bits(res.Score)
	}
	return r
}

func (r ranking) equal(o ranking) bool {
	if len(r.z) != len(o.z) {
		return false
	}
	for i := range r.z {
		if r.z[i] != o.z[i] || r.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// wellFormed is the check for a reply whose dataset state is unknown (a
// search that overlapped an append): at most k results, distinct z values,
// finite scores in non-increasing order.
func (r ranking) wellFormed(k int) bool {
	if len(r.z) > k {
		return false
	}
	seen := make(map[string]bool, len(r.z))
	for i, z := range r.z {
		s := math.Float64frombits(r.bits[i])
		if seen[z] || math.IsNaN(s) || math.IsInf(s, 0) {
			return false
		}
		if i > 0 && s > math.Float64frombits(r.bits[i-1]) {
			return false
		}
		seen[z] = true
	}
	return true
}

type wireResult struct {
	Z     string  `json:"z"`
	Score float64 `json:"score"`
}

// decodeReply parses a /api/search reply into one ranking per query.
func decodeReply(body []byte) ([]ranking, error) {
	var r struct {
		Results []wireResult `json:"results"`
		Queries []struct {
			Results []wireResult `json:"results"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding search reply: %w", err)
	}
	conv := func(ws []wireResult) ranking {
		rk := ranking{z: make([]string, len(ws)), bits: make([]uint64, len(ws))}
		for i, w := range ws {
			rk.z[i], rk.bits[i] = w.Z, math.Float64bits(w.Score)
		}
		return rk
	}
	if len(r.Queries) > 0 {
		out := make([]ranking, len(r.Queries))
		for i, q := range r.Queries {
			out[i] = conv(q.Results)
		}
		return out, nil
	}
	return []ranking{conv(r.Results)}, nil
}

// parseQuery runs the front end a query's kind selects, as the server does,
// recording a span around the parser call when tr traces.
func parseQuery(tr *tracer, parent int, nl *nlparser.Parser, q query) (shape.Query, error) {
	switch q.Kind {
	case "regex":
		defer tr.end(tr.begin("regexlang.Parse", parent))
		return regexlang.Parse(q.Query)
	case "nl":
		defer tr.end(tr.begin("nlparser.Parse", parent))
		sq, _, err := nl.Parse(q.Query)
		return sq, err
	case "sketch":
		defer tr.end(tr.begin("sketch.BlurryQuery", parent))
		return sketch.BlurryQuery(q.Sketch, sketch.DefaultConfig())
	}
	return shape.Query{}, fmt.Errorf("unknown query kind %q", q.Kind)
}

// oracle computes the expected reply of a search naively: each query is
// compiled unpruned with one worker and no shape index and scored over
// candidates extracted from a replica of the server's data. It keeps one
// replica index per dataset, which advances as appended batches are
// applied, and memoizes per dataset state.
type oracle struct {
	nl    *nlparser.Parser
	ix    map[string]*dataset.Index
	state map[string]int
	vizs  map[string][]*executor.Viz
	memo  map[string]ranking
}

func newOracle(tables map[string]*dataset.Table) *oracle {
	o := &oracle{
		nl:    nlparser.NewParser(),
		ix:    make(map[string]*dataset.Index),
		state: make(map[string]int),
		vizs:  make(map[string][]*executor.Viz),
		memo:  make(map[string]ranking),
	}
	for name, t := range tables {
		o.ix[name] = dataset.BuildIndex(t)
	}
	return o
}

// apply appends one batch to a dataset's replica.
func (o *oracle) apply(ds string, batch *dataset.Table) error {
	if err := o.ix[ds].Append(batch); err != nil {
		return fmt.Errorf("oracle append to %s: %w", ds, err)
	}
	o.state[ds]++
	return nil
}

// expect returns the reference ranking of each query of r at the replica's
// current state.
func (o *oracle) expect(r searchReq) ([]ranking, error) {
	ix, ok := o.ix[r.Dataset]
	if !ok {
		return nil, fmt.Errorf("oracle has no dataset %q", r.Dataset)
	}
	spec := r.extractSpec()
	opts := executor.DefaultOptions()
	opts.K = r.K
	opts.Pruning = false
	opts.Parallelism = 1
	opts.DisableAutoIndex = true
	var out []ranking
	for _, q := range r.queries() {
		sq, err := parseQuery(nil, -1, o.nl, q)
		if err != nil {
			return nil, err
		}
		plan, err := executor.Compile(sq, opts)
		if err != nil {
			return nil, err
		}
		ck := fmt.Sprintf("%s\x00%d\x00%s", r.Dataset, o.state[r.Dataset], plan.CandidateKey(spec))
		key := fmt.Sprintf("%s\x00%s\x00%d", ck, plan.Fingerprint(), r.K)
		if rk, ok := o.memo[key]; ok {
			out = append(out, rk)
			continue
		}
		vizs, ok := o.vizs[ck]
		if !ok {
			series, err := ix.Extract(plan.EffectiveSpec(spec))
			if err != nil {
				return nil, err
			}
			vizs = plan.GroupSeries(series)
			o.vizs[ck] = vizs
		}
		res, err := plan.RunGrouped(vizs)
		if err != nil {
			return nil, err
		}
		rk := rankingOf(res)
		o.memo[key] = rk
		out = append(out, rk)
	}
	return out, nil
}

// compareReply checks a decoded reply against the expected rankings and
// describes the first difference.
func compareReply(got, want []ranking) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rankings, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].equal(want[i]) {
			return fmt.Errorf("query %d: got %v, want %v", i, got[i].z, want[i].z)
		}
	}
	return nil
}
