// Stocks: the technical-analysis patterns from the paper's introduction —
// double tops (two peaks within a window, a bearish signal [1]),
// head-and-shoulders, and W-shaped recoveries — plus a comparison of the
// shape-algebra ranking with the DTW baseline on the same query.
//
//	go run ./examples/stocks
package main

import (
	"context"
	"fmt"
	"log"

	"shapesearch"
	"shapesearch/internal/gen"
)

func main() {
	tbl := gen.Stocks(80, 150, 7)
	spec := shapesearch.ExtractSpec{Z: "symbol", X: "day", Y: "price"}
	opts := shapesearch.DefaultOptions()
	opts.K = 5

	// Double top: at least two peaks — the quantifier form.
	q := shapesearch.MustParseRegex("[p=up, m={2,}] & [p=down, m={2,}]")
	show(tbl, spec, q, opts, "double top (≥2 rises and ≥2 falls)")

	// The same need phrased in natural language.
	q, _, err := shapesearch.ParseNL("stocks with at least 2 peaks")
	if err != nil {
		log.Fatal(err)
	}
	show(tbl, spec, q, opts, "double top (natural language)")

	// W-shape: down, up, down, up.
	q = shapesearch.MustParseRegex("d ; u ; d ; u")
	show(tbl, spec, q, opts, "W-shape")

	// Cup: falling, flattening, then rising — with grouping.
	q = shapesearch.MustParseRegex("d ; (f | d) ; u")
	show(tbl, spec, q, opts, "cup")

	// Compare the shape algebra with the DTW baseline on the W-shape:
	// value-based matching is noise-sensitive, which is why the paper's
	// user study found the algebra more accurate on blurry tasks.
	q = shapesearch.MustParseRegex("d ; u ; d ; u")
	dtwOpts := opts
	dtwOpts.Algorithm = shapesearch.AlgDTW
	show(tbl, spec, q, dtwOpts, "W-shape via DTW baseline (for contrast)")
}

func show(tbl *shapesearch.Table, spec shapesearch.ExtractSpec, q shapesearch.Query,
	opts shapesearch.Options, label string) {
	results, err := shapesearch.SearchContext(context.Background(), tbl, spec, q, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n  query: %s\n", label, q)
	for i, r := range results {
		fmt.Printf("  %d. %-10s %+.3f\n", i+1, r.Z, r.Score)
	}
	fmt.Println()
}
