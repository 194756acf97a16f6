package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// resultsFile is what -out writes and -compare reads: every run of every
// workload, not only medians.
type resultsFile struct {
	Go      string     `json:"go"`
	Nproc   int        `json:"nproc"`
	Commit  string     `json:"commit"`
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Runs    []*outcome `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// readBounds reads the end-to-end metrics and their bounds from a
// BENCHMARK.json.
func readBounds(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	worse      = "worse"
	unresolved = "unresolved"
	same       = "same"
)

// judge compares one metric's runs on the base and the head. Pairs are the
// runs of equal index. The rules are the benchmark's:
//   - worse: the head's median is worse than the base's by more than bound;
//   - improved: the head wins at least nine in ten pairs (ties count for
//     neither) and the medians differ by more than the base's
//     interquartile distance;
//   - unresolved: either side's spread exceeds bound, unless every head run
//     is better than every base run;
//   - same otherwise.
func judge(base, head []float64, better string, bound float64) string {
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	sign := 1.0 // positive when the head is worse
	if better == "higher" {
		sign = -1
	}
	if sign*(hmed-bmed) > bound*math.Abs(bmed) {
		return worse
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && sign*(hmed-bmed) < 0 && math.Abs(hmed-bmed) > bq3-bq1 {
		return improved
	}
	if spread(base) > bound || spread(head) > bound {
		if dominates(head, base, sign) {
			return improved
		}
		return unresolved
	}
	return same
}

// dominates reports whether every head run is better than every base run.
func dominates(head, base []float64, sign float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				return false
			}
		}
	}
	return len(head) > 0 && len(base) > 0
}

// compare prints one row per workload and end-to-end metric, plus failed
// operations, and reports whether any row is worse. defs are the bounded
// metrics; the unbounded ones get rows without a verdict.
func compare(w io.Writer, base, head *resultsFile, defs []metricDef) (anyWorse bool) {
	series := func(rf *resultsFile, workload, metric string) []float64 {
		var xs []float64
		for _, o := range rf.Runs {
			if o.Workload != workload {
				continue
			}
			if metric == "failed" {
				xs = append(xs, float64(o.Failed))
			} else if v, ok := o.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-8s %-14s %28s %28s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	failed := metricDef{Name: "failed", Unit: "count", Better: "lower"}
	for _, wl := range workloads {
		for _, d := range slices.Concat(defs, unbounded, []metricDef{failed}) {
			b, h := series(base, wl.name, d.Name), series(head, wl.name, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			hq1, hmed, hq3 := quartiles(h)
			var v string
			switch {
			case d.Name == failed.Name:
				// Any rise in failed operations is a regression.
				v = same
				if sum(h) > sum(b) {
					v = worse
				}
			case d.Bound == 0:
				v = "no bound"
			default:
				v = judge(b, h, d.Better, d.Bound)
			}
			anyWorse = anyWorse || v == worse
			change := "-"
			if bmed != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(hmed-bmed)/math.Abs(bmed))
			}
			fmt.Fprintf(w, "%-8s %-14s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %8s  %s\n",
				wl.name, d.Name, bmed, bq1, bq3, hmed, hq1, hq3, change, v)
		}
	}
	return anyWorse
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
