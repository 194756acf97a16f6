// Genomics: the paper's Section 8 case study. Bioinformatics researchers
// explore gene-expression trendlines: genes suppressed by a drug (up, down,
// up), stem-cell self-renewal profiles (rise at ~45° then stay high), and
// outliers (two expression peaks within a short window — the pvt1 finding).
//
//	go run ./examples/genomics
package main

import (
	"context"
	"fmt"
	"log"

	"shapesearch"
	"shapesearch/internal/gen"
)

func main() {
	// A synthetic mouse gene-expression dataset in the style of [7]:
	// columns gene, hour, expression.
	tbl := gen.Genes(120, 48, 2024)
	spec := shapesearch.ExtractSpec{Z: "gene", X: "hour", Y: "expression"}
	opts := shapesearch.DefaultOptions()
	opts.K = 5

	// R1's first query, in natural language: genes suppressed by the drug.
	q, _, err := shapesearch.ParseNL("show me genes that are rising, then going down, and then increasing")
	if err != nil {
		log.Fatal(err)
	}
	show(tbl, spec, q, opts, "drug-suppression profile (NL: up, down, up)")

	// R2's regex: self-renewal — rising at ~45° until some point, then
	// high and flat. gbx2, klf5 and spry4 carry this planted profile.
	q = shapesearch.MustParseRegex("[p=45] ; [p=flat]")
	show(tbl, spec, q, opts, "stem-cell self-renewal (regex: θ=45 then flat)")

	// The inverse behaviour: start high, fall, stay low.
	q = shapesearch.MustParseRegex("d ; f")
	show(tbl, spec, q, opts, "differentiation (regex: down then flat)")

	// R1's outlier hunt: two peaks within a short window (pvt1).
	q = shapesearch.MustParseRegex("[x.s=., x.e=.+12, p=[[p=up, m={2,}]]]")
	show(tbl, spec, q, opts, "outliers: two peaks within 12 hours")
}

func show(tbl *shapesearch.Table, spec shapesearch.ExtractSpec, q shapesearch.Query,
	opts shapesearch.Options, label string) {
	results, err := shapesearch.SearchContext(context.Background(), tbl, spec, q, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n  query: %s\n", label, q)
	for i, r := range results {
		fmt.Printf("  %d. %-22s %+.3f\n", i+1, r.Z, r.Score)
	}
	fmt.Println()
}
