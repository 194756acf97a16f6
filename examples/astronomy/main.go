// Astronomy: the paper's star-luminosity use cases (Figure 1c). A dip in
// brightness marks a planet transiting its star; a sharp spike marks a
// supernova. Astronomers also filter on luminosity on the fly, which
// changes the shapes — exactly the ad-hoc exploration ShapeSearch targets.
//
//	go run ./examples/astronomy
package main

import (
	"context"
	"fmt"
	"log"

	"shapesearch"
	"shapesearch/internal/gen"
)

func main() {
	tbl := gen.Luminosity(60, 300, 11)
	spec := shapesearch.ExtractSpec{Z: "star", X: "time", Y: "luminosity"}
	opts := shapesearch.DefaultOptions()
	opts.K = 5

	// Transit hunting: a narrow dip — flat, sharp fall, sharp rise, flat.
	q := shapesearch.MustParseRegex("f ; [p=down, m=>>] ; [p=up, m=>>] ; f")
	show(tbl, spec, q, opts, "planet transits (narrow dip)")

	// Supernovae, as the paper's NL example phrases it.
	q, _, err := shapesearch.ParseNL("find me objects with a sharp peak in luminosity")
	if err != nil {
		log.Fatal(err)
	}
	show(tbl, spec, q, opts, "supernovae (NL: sharp peak)")

	// Repeating transits: at least two dips — a candidate binary system or
	// a short-period planet.
	q = shapesearch.MustParseRegex("[p=down, m={2,}] & [p=up, m={2,}]")
	show(tbl, spec, q, opts, "repeating transits (≥2 dips)")

	// On-the-fly filters (Figure 1c): restrict to the mid-luminosity band
	// and search again — the shape of each trendline changes with the
	// filter, so nothing can be precomputed.
	filtered := spec
	filtered.Filters = []shapesearch.Filter{
		{Col: "luminosity", Op: shapesearch.Lt, Num: 140},
		{Col: "luminosity", Op: shapesearch.Gt, Num: 20},
	}
	q = shapesearch.MustParseRegex("f ; [p=down, m=>>] ; [p=up, m=>>] ; f")
	show(tbl, filtered, q, opts, "transits with 20 < luminosity < 140 filters")
}

func show(tbl *shapesearch.Table, spec shapesearch.ExtractSpec, q shapesearch.Query,
	opts shapesearch.Options, label string) {
	results, err := shapesearch.SearchContext(context.Background(), tbl, spec, q, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n  query: %s\n", label, q)
	for i, r := range results {
		fmt.Printf("  %d. %-14s %+.3f\n", i+1, r.Z, r.Score)
	}
	fmt.Println()
}
