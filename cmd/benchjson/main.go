// Command benchjson converts a `go test -json -bench` event stream (stdin)
// into a compact JSON array of benchmark results (stdout), one record per
// benchmark: name, package, iterations, ns/op, and the B/op and allocs/op
// columns when -benchmem / b.ReportAllocs emitted them. The repeated lines
// of one benchmark (`-count N`) fold into one record: ns_per_op is their
// median, beside the min, the max and the number of runs, and every other
// column is its own median too, so one record reads as before at any
// count. With -table it prints an aligned human-readable summary instead —
// CI runs it both ways over the same raw stream, committing the JSON
// (BENCH_PR10.json) and printing the table into the build log.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

type result struct {
	Name       string  `json:"name"`
	Package    string  `json:"package"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// NsPerOpMin and NsPerOpMax span the folded runs' ns/op; Runs counts
	// them.
	NsPerOpMin  float64  `json:"ns_per_op_min"`
	NsPerOpMax  float64  `json:"ns_per_op_max"`
	Runs        int      `json:"runs"`
	BytesPerOp  *int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64 `json:"mb_per_s,omitempty"`
}

func main() {
	table := flag.Bool("table", false,
		"print an aligned summary table instead of JSON")
	flag.Parse()
	lines, err := parseStream(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	results := fold(lines)
	if *table {
		printTable(results)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseStream reads a `go test -json` event stream and returns one result
// per benchmark line, in stream order.
func parseStream(r io.Reader) ([]result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []result
	// test2json splits a benchmark result across output events (the padded
	// name first, the metrics after the timing run), so chunks are
	// reassembled into lines per (package, test) stream before parsing.
	pending := make(map[string]string)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON lines interleaved by tools
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "\x00" + ev.Test
		buf := pending[key] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			if r, ok := parseBenchLine(ev.Package, buf[:nl]); ok {
				lines = append(lines, r)
			}
			buf = buf[nl+1:]
		}
		if buf == "" {
			delete(pending, key)
		} else {
			pending[key] = buf
		}
	}
	return lines, sc.Err()
}

// fold merges the lines of each benchmark, keyed by (package, name), into
// one record in order of first appearance. Every column of the record is
// the median over the benchmark's lines (the mean of the middle two for
// an even count, truncated for integer columns); a column some line lacks
// is left out.
func fold(lines []result) []result {
	out := []result{} // non-nil: an empty run must emit [], not null
	at := make(map[[2]string]int)
	var groups [][]result
	for _, r := range lines {
		key := [2]string{r.Package, r.Name}
		i, ok := at[key]
		if !ok {
			i = len(groups)
			at[key] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	for _, g := range groups {
		ns := make([]float64, len(g))
		iters := make([]int64, len(g))
		var bytes, allocs []int64
		var mbs []float64
		for i, r := range g {
			ns[i], iters[i] = r.NsPerOp, r.Iterations
			if r.BytesPerOp != nil {
				bytes = append(bytes, *r.BytesPerOp)
			}
			if r.AllocsPerOp != nil {
				allocs = append(allocs, *r.AllocsPerOp)
			}
			if r.MBPerSec != nil {
				mbs = append(mbs, *r.MBPerSec)
			}
		}
		slices.Sort(ns)
		f := result{
			Name: g[0].Name, Package: g[0].Package,
			Iterations: median(iters), NsPerOp: median(ns),
			NsPerOpMin: ns[0], NsPerOpMax: ns[len(ns)-1], Runs: len(g),
		}
		if len(bytes) == len(g) {
			m := median(bytes)
			f.BytesPerOp = &m
		}
		if len(allocs) == len(g) {
			m := median(allocs)
			f.AllocsPerOp = &m
		}
		if len(mbs) == len(g) {
			m := median(mbs)
			f.MBPerSec = &m
		}
		out = append(out, f)
	}
	return out
}

// median returns the median of xs (non-empty): the middle value, or the
// mean of the middle two for an even count.
func median[T int64 | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.SortFunc(s, cmp.Compare[T])
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return s[m-1] + (s[m]-s[m-1])/2
}

// printTable writes the results as an aligned summary, one row per
// benchmark, suitable for a CI build log.
func printTable(results []result) {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "BENCHMARK\tRUNS\tITERS\tNS/OP\tMIN\tMAX\tB/OP\tALLOCS/OP")
	for _, r := range results {
		bytesCol, allocsCol := "-", "-"
		if r.BytesPerOp != nil {
			bytesCol = strconv.FormatInt(*r.BytesPerOp, 10)
		}
		if r.AllocsPerOp != nil {
			allocsCol = strconv.FormatInt(*r.AllocsPerOp, 10)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%s\t%s\n",
			r.Name, r.Runs, r.Iterations, r.NsPerOp, r.NsPerOpMin, r.NsPerOpMax, bytesCol, allocsCol)
	}
	w.Flush()
}

// parseBenchLine recognizes testing's benchmark result format:
// "BenchmarkName-8  30  123456 ns/op  7708 B/op  69 allocs/op".
func parseBenchLine(pkg, line string) (result, bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
		return result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Package: pkg, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = f
			}
		case "B/op":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = &n
			}
		case "allocs/op":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = &n
			}
		case "MB/s":
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				r.MBPerSec = &f
			}
		}
	}
	return r, true
}
