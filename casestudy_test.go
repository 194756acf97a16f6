package shapesearch_test

import (
	"context"
	"testing"

	"shapesearch"
	"shapesearch/internal/gen"
)

// TestGenomicsCaseStudy replays the Section 8 case study end to end on the
// synthetic gene-expression dataset: the planted biology must surface
// through the public API exactly as the paper's researchers found it.
func TestGenomicsCaseStudy(t *testing.T) {
	tbl := gen.Genes(120, 48, 2024)
	spec := shapesearch.ExtractSpec{Z: "gene", X: "hour", Y: "expression"}
	opts := shapesearch.DefaultOptions()
	opts.K = 20

	topSet := func(q shapesearch.Query) map[string]int {
		t.Helper()
		res, err := shapesearch.SearchContext(context.Background(), tbl, spec, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int, len(res))
		for i, r := range res {
			out[r.Z] = i + 1
		}
		return out
	}

	// R2's stem-cell query: rising at ~45° then high and flat. The planted
	// self-renewal genes gbx2, klf5 and spry4 must all match strongly —
	// the paper's "similar functionality" discovery. The dataset plants
	// ~15 more genes with the same profile, so the robust check is score
	// proximity to the best match, not exact rank among equals.
	opts.K = 120
	res, err := shapesearch.SearchContext(context.Background(), tbl, spec, shapesearch.MustParseRegex("[p=45] ; [p=flat]"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.K = 20
	scores := make(map[string]float64, len(res))
	for _, r := range res {
		scores[r.Z] = r.Score
	}
	best := res[0].Score
	for _, g := range []string{"gbx2", "klf5", "spry4"} {
		sc, ok := scores[g]
		if !ok || sc < 0.5 || sc < best-0.25 {
			t.Errorf("self-renewal gene %s scored %v (best %v); want a strong match", g, sc, best)
		}
	}

	// R1's outlier: two peaks within a short window — pvt1 must appear in
	// the results panel (the paper's researcher spotted it among the top
	// matches, not necessarily first).
	ranks := topSet(shapesearch.MustParseRegex("[x.s=., x.e=.+12, p=[[p=up, m={2,}]]]"))
	if pos, ok := ranks["pvt1"]; !ok || pos > 8 {
		t.Errorf("two-peaks-in-window query should surface pvt1 near the top, got rank %d (ok=%v)", pos, ok)
	}

	// The drug-suppression NL query must parse and return suppressed-profile
	// genes with positive scores.
	q, _, err := shapesearch.ParseNL("show me genes that are rising, then going down, and then increasing")
	if err != nil {
		t.Fatal(err)
	}
	nlRes, err := shapesearch.SearchContext(context.Background(), tbl, spec, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(nlRes) == 0 || nlRes[0].Score < 0.4 {
		t.Fatalf("suppression query found nothing convincing: %+v", nlRes)
	}
}

// TestBuiltinUDPLibrary exercises the §7.2 extension through the public
// API: mathematical patterns compose with the algebra.
func TestBuiltinUDPLibrary(t *testing.T) {
	tbl := gen.Stocks(40, 120, 9)
	spec := shapesearch.ExtractSpec{Z: "symbol", X: "day", Y: "price"}
	opts := shapesearch.DefaultOptions()
	opts.UDPs = shapesearch.BuiltinUDPs()
	opts.K = 5

	// Recovery stocks fall then rise: the vshape UDP should surface them.
	res, err := shapesearch.SearchContext(context.Background(), tbl, spec, shapesearch.MustParseRegex("[p=vshape]"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no vshape results")
	}
	found := false
	for _, r := range res {
		if len(r.Z) >= 3 && (r.Z[:3] == "rec" || r.Z[:3] == "w-s" || r.Z[:3] == "cup") {
			found = true
		}
	}
	if !found {
		zs := make([]string, len(res))
		for i, r := range res {
			zs[i] = r.Z
		}
		t.Errorf("vshape top-5 misses recovery/W/cup stocks: %v", zs)
	}

	// Composition with the algebra: choppy but net rising.
	res, err = shapesearch.SearchContext(context.Background(), tbl, spec,
		shapesearch.MustParseRegex("[p=volatile] & [p=up]"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no volatile-up results")
	}
}
