package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric, its unit and which direction is better.
// Bound, read from BENCHMARK.json for end-to-end metrics, is the share of
// the base's median by which the metric may worsen before a change counts
// as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a client of the server sees, reported per
// workload with tracing off. BENCHMARK.json lists the same, with bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower"},
}

// unbounded are end-to-end metrics whose spread over runs with different
// seeds, on the machines this benchmark was built on, came near or past
// the widest bound a regression check may use; they are reported but not
// judged.
var unbounded = []metricDef{
	{Name: "search_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "search_qps", Unit: "1/s", Better: "higher"},
	{Name: "append_p99_ms", Unit: "ms", Better: "lower"},
}

// perLayer are the traced run's metrics of single layers, reported per
// workload. BENCHMARK.json lists the same; README.md gives the end-to-end
// metric each should move.
var perLayer = []metricDef{
	{Name: "regexlang.parse_us", Unit: "us", Better: "lower"},
	{Name: "nlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "sketch.infer_us", Unit: "us", Better: "lower"},
	{Name: "shape.normalize_us", Unit: "us", Better: "lower"},
	{Name: "executor.compile_us", Unit: "us", Better: "lower"},
	{Name: "dataset.build_index_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.group_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.score_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.score_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "executor.visited_frac", Unit: "ratio", Better: "lower"},
	{Name: "executor.scored_frac", Unit: "ratio", Better: "lower"},
	{Name: "dataset.csv_parse_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.append_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.extract_groups_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.index_update_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.index_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// supporting metrics are printed and recorded but not judged: counts that
// qualify the others, metrics that read the same on every run of a
// workload, and the parts of the latency accounting.
var supporting = []metricDef{
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "search_samples", Unit: "count", Better: "higher"},
	{Name: "append_samples", Unit: "count", Better: "higher"},
	{Name: "check.exact", Unit: "count", Better: "higher"},
	{Name: "check.form_only", Unit: "count", Better: "lower"},
	{Name: "server.plan_cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "server.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.timeout_frac", Unit: "ratio", Better: "lower"},
	{Name: "executor.candidates", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
	{Name: "runtime.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.realtime", Unit: "bool", Better: "higher"},
	{Name: "serial.search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serial.search_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.layers_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.bookkeeping_ms", Unit: "ms", Better: "lower"},
}

// printOutcome writes every metric of a run by name, with its unit.
func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "== %s  seed %d  attempted %d  failed %d  correct %v  repeated %d\n", o.Workload, o.Seed, o.Attempted, o.Failed, o.Correct, o.Retries)
	for _, group := range [][]metricDef{endToEnd, unbounded, perLayer, supporting} {
		for _, d := range group {
			if v, ok := o.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, k := range []string{"search", "append"} {
		if n := int(o.Metrics[k+"_samples"]); n > 0 {
			fmt.Fprintf(w, "  %s latency: %d open-loop samples; p%g is the highest percentile with %d beyond it\n", k, n, tailPercentile(n), minTail)
		}
	}
	for _, f := range o.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, s := range o.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", s)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line JSON result: the end-to-end metrics, or
// with trace the per-layer ones. With several workloads each key is
// prefixed by its workload, and with several runs by the run number too.
func resultLine(outs []*outcome, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	runs := 0
	for _, o := range outs {
		runs = max(runs, o.Run+1)
	}
	for _, o := range outs {
		res.Correct = res.Correct && o.Correct
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		prefix := ""
		switch {
		case runs > 1:
			prefix = fmt.Sprintf("%d/%s/", o.Run, o.Workload)
		case len(outs) > 1:
			prefix = o.Workload + "/"
		}
		for _, d := range defs {
			v, ok := o.Metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s was not measured", o.Workload, d.Name)
			}
			res.Metrics[prefix+d.Name] = metricValue{v, d.Unit}
		}
	}
	return json.Marshal(res)
}
