package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shapesearch/internal/dataset"
)

// TestMain lets the test binary serve as the load-generator process that
// runLoad starts.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == loadgenFlag {
		os.Exit(loadgenMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99.99}, {100_000, 99.99}, {10_000, 99.9}, {1000, 99},
		{999, 98}, {500, 98}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The reported percentile leaves at least minTail samples beyond it,
	// and the next step up the ladder would not.
	for _, n := range []int{20, 57, 100, 999, 1000, 1080, 2400, 10_000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p := tailPercentile(n)
		if beyond := n - 1 - int(percentile(xs, p)); beyond < minTail {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want at least %d", n, p, beyond, minTail)
		}
		for i, q := range tailPercentiles {
			if q == p && i > 0 {
				if beyond := n - 1 - int(percentile(xs, tailPercentiles[i-1])); beyond >= minTail {
					t.Errorf("n=%d: p%g leaves %d samples beyond it, so p%g is not the highest", n, tailPercentiles[i-1], beyond, p)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 40, 20, 30}, [3]float64{12.5, 25, 37.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestOpenLoopChargesStall checks that the open loop times each request
// from when it was due: a server that stalls once inflates the latency of
// every request queued behind the stalled one.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		stall    = 300 * time.Millisecond
		interval = 10 * time.Millisecond
		n        = 40
	)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opSearch, Seq: i, At: time.Duration(i) * interval, Path: "/"}
	}
	samples, _ := openLoop(context.Background(), c, c, ops, time.Now())
	for i, s := range samples {
		if !s.ok() {
			t.Fatalf("op %d: status %d: %s", i, s.Status, s.Err)
		}
		if due := ops[i].At; due < stall {
			// Queued behind the stalled request on the one connection.
			if want := stall - due; s.latency() < want {
				t.Errorf("op %d, due at %v: latency %v, want at least %v", i, due, s.latency(), want)
			}
		} else if s.latency() > stall/2 {
			t.Errorf("op %d, due at %v after the stall: latency %v", i, due, s.latency())
		}
	}
}

func TestJudge(t *testing.T) {
	around := func(center, width float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center + width*(float64(i)/9-0.5)
		}
		return xs
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		better     string
		want       string
	}{
		{"same", around(100, 2), around(101, 2), "lower", same},
		{"worse beyond the bound", around(100, 2), around(115, 2), "lower", worse},
		{"worse, higher is better", around(100, 2), around(85, 2), "higher", worse},
		{"improved", around(100, 2), around(90, 2), "lower", improved},
		{"improved, higher is better", around(100, 2), around(110, 2), "higher", improved},
		{"within the base's spread", around(100, 20), around(95, 20), "lower", unresolved},
		{"wide spread but every head run better", around(100, 30), around(60, 10), "lower", improved},
		{"head wins too few pairs", []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 100, 100}, "lower", same},
	} {
		if got := judge(c.base, c.head, c.better, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	results := func(p50 float64, failed int) *resultsFile {
		rf := &resultsFile{}
		for i := 0; i < 5; i++ {
			rf.Runs = append(rf.Runs, &outcome{Run: i, Workload: "explore", Failed: failed,
				Metrics: map[string]float64{"search_p50_ms": p50 + float64(i)*0.01, "search_qps": 200}})
		}
		return rf
	}
	defs := []metricDef{{"search_p50_ms", "ms", "lower", 0.1}}
	for _, c := range []struct {
		name      string
		head      *resultsFile
		wantWorse bool
		wantRow   string
	}{
		{"unchanged", results(5, 0), false, "search_p50_ms"},
		{"slower", results(6, 0), true, "worse"},
		{"failures rose", results(5, 1), true, "failed"},
	} {
		var out bytes.Buffer
		if got := compare(&out, results(5, 0), c.head, defs); got != c.wantWorse {
			t.Errorf("%s: compare reported worse=%v, want %v\n%s", c.name, got, c.wantWorse, out.String())
		}
		if !strings.Contains(out.String(), c.wantRow) || !regexp.MustCompile(`search_qps .* no bound`).MatchString(out.String()) {
			t.Errorf("%s: output lacks %q or an unjudged search_qps row:\n%s", c.name, c.wantRow, out.String())
		}
	}
}

// TestBenchmarkDefinition checks that BENCHMARK.json, at the root of the
// repository, defines the metrics and workloads this command reports.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in %s, %d here", kind, len(got), benchmarkFile, len(want))
			return
		}
		for i := range want {
			g := got[i]
			g.Bound = 0
			if g != want[i] {
				t.Errorf("%s metric %d: %+v in %s, %+v here", kind, i, got[i], benchmarkFile, want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	for _, d := range def.EndToEnd {
		if d.Bound <= 0 || d.Bound > def.EndToEnd[0].Bound {
			t.Errorf("%s: bound %g, want in (0, setup_s's %g]", d.Name, d.Bound, def.EndToEnd[0].Bound)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d here", len(def.Workloads), benchmarkFile, len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v in %s, %s (%q) here", i, def.Workloads[i], benchmarkFile, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload at toy size for a second, with tracing, and
// checks that every reply passed its check and every metric was measured.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 7, seconds: 1, trace: true, sizes: toySizes, minSamples: 20, setups: 2}
	var outs []*outcome
	for _, w := range workloads {
		o, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed: %v", w.name, o.Correct, o.Failed, o.Attempted, o.Failures)
		}
		var out bytes.Buffer
		printOutcome(&out, o)
		for _, d := range slices.Concat(endToEnd, unbounded, perLayer, supporting) {
			v, ok := o.Metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v, %v", w.name, d.Name, v, ok)
			}
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("%s: metric %s not printed", w.name, d.Name)
			}
		}
		outs = append(outs, o)
	}
	for _, trace := range []bool{false, true} {
		line, err := resultLine(outs, trace)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   bool
			Attempted int
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if !res.Correct || len(res.Metrics) != len(defs)*len(workloads) {
			t.Errorf("trace %v: correct %v, %d metrics, want %d", trace, res.Correct, len(res.Metrics), len(defs)*len(workloads))
		}
	}
}

// TestCheckCatchesWrongScore checks that a reply differing from the
// reference in the last bit of one score fails its check.
func TestCheckCatchesWrongScore(t *testing.T) {
	w, _ := workloadByName("explore")
	in := w.build(3, toySizes, 0)
	or := newOracle(map[string]*dataset.Table{in.vis.dataset: in.main(), ticksName: in.ticks()})
	want, err := or.expect(in.search(0))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]ranking, len(want))
	for i, rk := range want {
		got[i] = ranking{z: append([]string(nil), rk.z...), bits: append([]uint64(nil), rk.bits...)}
	}
	if err := compareReply(got, want); err != nil {
		t.Fatalf("identical rankings differ: %v", err)
	}
	got[0].bits[len(got[0].bits)-1] ^= 1
	if err := compareReply(got, want); err == nil {
		t.Error("a score one bit off passed the check")
	}
}
