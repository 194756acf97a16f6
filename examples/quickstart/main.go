// Quickstart: build a tiny dataset in memory, search it with all three
// query mechanisms (regex, natural language, sketch), and print the
// matches.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"shapesearch"
)

func main() {
	// Four products with different sales trajectories over 12 months.
	shapes := map[string][]float64{
		"laptop": {10, 14, 18, 24, 28, 33, 37, 42, 45, 50, 55, 60}, // steady growth
		"phone":  {60, 55, 49, 44, 38, 33, 28, 25, 20, 16, 12, 10}, // steady decline
		"tablet": {10, 18, 27, 36, 45, 50, 45, 36, 27, 18, 12, 10}, // rise then fall
		"watch":  {30, 29, 31, 30, 29, 30, 31, 30, 29, 31, 30, 30}, // flat
	}
	var products []string
	var months, sales []float64
	for name, ys := range shapes {
		for m, y := range ys {
			products = append(products, name)
			months = append(months, float64(m+1))
			sales = append(sales, y)
		}
	}
	tbl, err := shapesearch.NewTable(
		shapesearch.Column{Name: "product", Type: shapesearch.String, Strings: products},
		shapesearch.Column{Name: "month", Type: shapesearch.Float, Floats: months},
		shapesearch.Column{Name: "sales", Type: shapesearch.Float, Floats: sales},
	)
	if err != nil {
		log.Fatal(err)
	}
	spec := shapesearch.ExtractSpec{Z: "product", X: "month", Y: "sales"}
	opts := shapesearch.DefaultOptions()
	opts.K = 2

	// 1. Visual regular expression: rising then falling.
	q := shapesearch.MustParseRegex("u ; d")
	report(tbl, spec, q, opts, `regex "u ; d"`)

	// 2. Natural language: the same shape, in words.
	q, _, err = shapesearch.ParseNL("products that are rising and then falling")
	if err != nil {
		log.Fatal(err)
	}
	report(tbl, spec, q, opts, fmt.Sprintf("natural language → %s", q))

	// 3. Sketch: draw a peak, infer the blurry query.
	stroke := []shapesearch.Point{
		{X: 1, Y: 0}, {X: 3, Y: 20}, {X: 6, Y: 45}, {X: 9, Y: 20}, {X: 12, Y: 0},
	}
	q, err = shapesearch.SketchBlurry(stroke, shapesearch.DefaultSketchConfig())
	if err != nil {
		log.Fatal(err)
	}
	report(tbl, spec, q, opts, fmt.Sprintf("sketch → %s", q))
}

func report(tbl *shapesearch.Table, spec shapesearch.ExtractSpec, q shapesearch.Query,
	opts shapesearch.Options, label string) {
	results, err := shapesearch.SearchContext(context.Background(), tbl, spec, q, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n", label)
	for _, r := range results {
		fmt.Printf("  %-8s score %+.3f\n", r.Z, r.Score)
	}
	fmt.Println()
}
