package shapesearch_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"shapesearch"
)

func demoTable(t *testing.T) *shapesearch.Table {
	t.Helper()
	var zs []string
	var xs, ys []float64
	add := func(z string, vals ...float64) {
		for i, v := range vals {
			zs = append(zs, z)
			xs = append(xs, float64(i))
			ys = append(ys, v)
		}
	}
	add("peak", 0, 2, 4, 6, 8, 6, 4, 2, 0)
	add("rise", 0, 1, 2, 3, 4, 5, 6, 7, 8)
	add("fall", 8, 7, 6, 5, 4, 3, 2, 1, 0)
	tbl, err := shapesearch.NewTable(
		shapesearch.Column{Name: "z", Type: shapesearch.String, Strings: zs},
		shapesearch.Column{Name: "x", Type: shapesearch.Float, Floats: xs},
		shapesearch.Column{Name: "y", Type: shapesearch.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestPublicAPISearch(t *testing.T) {
	tbl := demoTable(t)
	q, err := shapesearch.ParseRegex("u ; d")
	if err != nil {
		t.Fatal(err)
	}
	res, err := shapesearch.SearchContext(context.Background(), tbl,
		shapesearch.ExtractSpec{Z: "z", X: "x", Y: "y"}, q, shapesearch.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Z != "peak" {
		t.Fatalf("top = %s", res[0].Z)
	}
}

func TestPublicAPINLAndSketch(t *testing.T) {
	q, info, err := shapesearch.ParseNL("rising then falling")
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "[p=up][p=down]" || info == nil {
		t.Fatalf("NL parse = %s", q)
	}
	pts := []shapesearch.Point{{X: 0, Y: 0}, {X: 5, Y: 10}, {X: 10, Y: 0}}
	q, err = shapesearch.SketchBlurry(pts, shapesearch.DefaultSketchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "[p=up][p=down]" {
		t.Fatalf("sketch query = %s", q)
	}
	if _, err := shapesearch.SketchExact(pts); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	csv := "city,month,temp\na,1,10\na,2,20\nb,1,20\nb,2,10\n"
	tbl, err := shapesearch.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	series, err := shapesearch.Extract(tbl, shapesearch.ExtractSpec{Z: "city", X: "month", Y: "temp"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := shapesearch.SearchSeriesContext(context.Background(), series, shapesearch.MustParseRegex("u"), shapesearch.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Z != "a" {
		t.Fatalf("top = %s", res[0].Z)
	}
}

func TestPublicAPIUDP(t *testing.T) {
	tbl := demoTable(t)
	opts := shapesearch.DefaultOptions()
	opts.UDPs = shapesearch.NewUDPRegistry()
	err := opts.UDPs.Register("symmetric", func(xs, ys []float64) float64 {
		n := len(ys)
		var diff, scale float64
		for i := 0; i < n/2; i++ {
			d := ys[i] - ys[n-1-i]
			diff += d * d
			scale += ys[i] * ys[i]
		}
		if scale == 0 {
			return 0
		}
		return 1 - 2*diff/(diff+scale)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := shapesearch.SearchContext(context.Background(), tbl,
		shapesearch.ExtractSpec{Z: "z", X: "x", Y: "y"},
		shapesearch.MustParseRegex("[p=symmetric]"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Z != "peak" {
		t.Fatalf("top = %s (score %v)", res[0].Z, res[0].Score)
	}
}

// TestUDPNameCaseInsensitive: the regex lexer lower-cases identifiers, so a
// pattern registered as "MyShape" must be found by [p=MyShape] and
// [p=myshape] alike, and score every chart with the registered function.
func TestUDPNameCaseInsensitive(t *testing.T) {
	opts := shapesearch.DefaultOptions()
	opts.UDPs = shapesearch.NewUDPRegistry()
	// The score is the chart's last y over 10, so the ranking and every
	// score show the UDP ran.
	if err := opts.UDPs.Register("MyShape", func(_, ys []float64) float64 { return ys[len(ys)-1] / 10 }); err != nil {
		t.Fatal(err)
	}
	series := []shapesearch.Series{
		{Z: "low", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 1}},
		{Z: "high", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 7}},
		{Z: "mid", X: []float64{0, 1, 2, 3}, Y: []float64{5, 1, 2, 4}},
	}
	for _, q := range []string{"[p=MyShape]", "[p=myshape]"} {
		res, err := shapesearch.SearchSeriesContext(context.Background(), series, shapesearch.MustParseRegex(q), opts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := []struct {
			z     string
			score float64
		}{{"high", 0.7}, {"mid", 0.4}, {"low", 0.1}}
		if len(res) != len(want) {
			t.Fatalf("%s: %d results, want %d", q, len(res), len(want))
		}
		for i, w := range want {
			if res[i].Z != w.z || res[i].Score != w.score {
				t.Fatalf("%s: result %d is %s at %v, want %s at %v", q, i, res[i].Z, res[i].Score, w.z, w.score)
			}
		}
	}
}

func TestTrainNLTagger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	model, err := shapesearch.TrainNLTagger(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := shapesearch.NewNLParserWithModel(model)
	q, _, err := p.Parse("rising then falling")
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "[p=up][p=down]" {
		t.Fatalf("CRF-backed parse = %s", q)
	}
}

// ExampleParseRegex demonstrates the query language.
func ExampleParseRegex() {
	q, _ := shapesearch.ParseRegex("[x.s=2, x.e=5, p=up, m=>>] ; d ; u")
	fmt.Println(q)
	fmt.Println("fuzzy:", q.IsFuzzy())
	// Output:
	// [x.s=2, x.e=5, p=up, m=>>][p=down][p=up]
	// fuzzy: true
}

// ExampleParseNL demonstrates natural-language queries.
func ExampleParseNL() {
	q, _, _ := shapesearch.ParseNL("genes with at least 2 peaks")
	fmt.Println(q)
	// Output:
	// [p=up, m={2,}]
}
