package main

import (
	"strings"
	"testing"
)

// stream renders benchmark result lines as a `go test -json` event
// stream, splitting each line after its padded name as test2json does.
func stream(pkg string, lines ...string) string {
	var sb strings.Builder
	for _, l := range lines {
		name, rest, _ := strings.Cut(l, " ")
		sb.WriteString(`{"Action":"output","Package":"` + pkg + `","Output":"` + name + ` "}` + "\n")
		sb.WriteString(`{"Action":"output","Package":"` + pkg + `","Output":"` + rest + `\n"}` + "\n")
	}
	return sb.String()
}

// TestFoldRepeatedRuns: the five lines of one benchmark fold into one
// record whose ns_per_op is their median, beside the min, the max and the
// run count, in order of first appearance; a benchmark run once keeps its
// own numbers.
func TestFoldRepeatedRuns(t *testing.T) {
	in := stream("p",
		"BenchmarkA-2 1 500 ns/op 64 B/op 2 allocs/op",
		"BenchmarkB-2 10 7 ns/op",
		"BenchmarkA-2 1 300 ns/op 64 B/op 2 allocs/op",
		"BenchmarkA-2 1 900 ns/op 80 B/op 3 allocs/op",
		"BenchmarkA-2 1 100 ns/op 64 B/op 2 allocs/op",
		"BenchmarkA-2 1 400 ns/op 64 B/op 2 allocs/op",
	) + stream("q", "BenchmarkA-2 1 50 ns/op")
	lines, err := parseStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := fold(lines)
	if len(got) != 3 {
		t.Fatalf("%d records, want 3: %+v", len(got), got)
	}
	a, b, q := got[0], got[1], got[2]
	if a.Name != "BenchmarkA-2" || a.Package != "p" || a.Runs != 5 || a.NsPerOp != 400 ||
		a.NsPerOpMin != 100 || a.NsPerOpMax != 900 || a.Iterations != 1 ||
		a.BytesPerOp == nil || *a.BytesPerOp != 64 || a.AllocsPerOp == nil || *a.AllocsPerOp != 2 {
		t.Fatalf("folded A = %+v", a)
	}
	if b.Name != "BenchmarkB-2" || b.Runs != 1 || b.NsPerOp != 7 || b.NsPerOpMin != 7 || b.NsPerOpMax != 7 ||
		b.Iterations != 10 || b.BytesPerOp != nil || b.AllocsPerOp != nil {
		t.Fatalf("B = %+v", b)
	}
	if q.Package != "q" || q.Runs != 1 || q.NsPerOp != 50 {
		t.Fatalf("q's A = %+v", q)
	}
}

// TestFoldEvenCount: with an even number of runs the median is the mean of
// the middle two, and an empty stream folds to an empty, non-nil list.
func TestFoldEvenCount(t *testing.T) {
	lines, err := parseStream(strings.NewReader(stream("p",
		"BenchmarkC 1 10 ns/op", "BenchmarkC 1 40 ns/op", "BenchmarkC 1 20 ns/op", "BenchmarkC 1 30 ns/op")))
	if err != nil {
		t.Fatal(err)
	}
	got := fold(lines)
	if len(got) != 1 || got[0].NsPerOp != 25 || got[0].NsPerOpMin != 10 || got[0].NsPerOpMax != 40 || got[0].Runs != 4 {
		t.Fatalf("folded = %+v", got)
	}
	if empty := fold(nil); empty == nil || len(empty) != 0 {
		t.Fatalf("empty fold = %#v", empty)
	}
}
