// Command benchjson converts a `go test -json -bench` event stream (stdin)
// into a compact JSON array of benchmark results (stdout), one record per
// benchmark line: name, package, iterations, ns/op, and the B/op and
// allocs/op columns when -benchmem / b.ReportAllocs emitted them. With
// -table it prints an aligned human-readable summary instead — CI runs it
// both ways over the same raw stream, committing the JSON (BENCH_PR10.json)
// and printing the table into the build log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
	Name        string   `json:"name"`
	Package     string   `json:"package"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64 `json:"mb_per_s,omitempty"`
}

func main() {
	table := flag.Bool("table", false,
		"print an aligned summary table instead of JSON")
	flag.Parse()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results := []result{} // non-nil: an empty run must emit [], not null
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
				results = append(results, r)
			}
			buf = buf[nl+1:]
		}
		if buf == "" {
			delete(pending, key)
		} else {
			pending[key] = buf
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
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

// printTable writes the results as an aligned summary, one row per
// benchmark, suitable for a CI build log.
func printTable(results []result) {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "BENCHMARK\tITERS\tNS/OP\tB/OP\tALLOCS/OP")
	for _, r := range results {
		bytesCol, allocsCol := "-", "-"
		if r.BytesPerOp != nil {
			bytesCol = strconv.FormatInt(*r.BytesPerOp, 10)
		}
		if r.AllocsPerOp != nil {
			allocsCol = strconv.FormatInt(*r.AllocsPerOp, 10)
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%s\t%s\n",
			r.Name, r.Iterations, r.NsPerOp, bytesCol, allocsCol)
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
