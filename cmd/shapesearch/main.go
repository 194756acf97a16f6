// Command shapesearch is the terminal front-end: load a CSV dataset (or a
// built-in demo), issue a shape query as a visual regex or natural
// language, and print the top matching trendlines as sparklines.
//
// Examples:
//
//	shapesearch -demo stocks -regex "u ; d ; u ; d" -k 5
//	shapesearch -demo genes -nl "rising then falling then rising"
//	shapesearch -data prices.csv -z symbol -x day -y close -regex "[p=up, m={2,}]"
//
// -regex may repeat; several queries execute as one batch, sharing a
// single pass over the candidate trendlines:
//
//	shapesearch -demo stocks -regex "u ; d" -regex "d ; u" -regex "u ; d ; u"
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"shapesearch"
	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/gen"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV dataset path")
		demo      = flag.String("demo", "", "built-in demo dataset: stocks, genes, luminosity, cities")
		zAttr     = flag.String("z", "", "category attribute (one trendline per value)")
		xAttr     = flag.String("x", "", "x axis attribute")
		yAttr     = flag.String("y", "", "y axis attribute")
		agg       = flag.String("agg", "none", "aggregation for duplicate (z,x): none, avg, sum, min, max, count")
		nl        = flag.String("nl", "", "natural language query")
		k         = flag.Int("k", 5, "number of results")
		algName   = flag.String("alg", "auto", "algorithm: auto, dp, segmenttree, greedy, dtw, euclidean")
		pruning   = flag.Bool("pruning", false, "enable lossless collective pruning (bound-first scan plus deferred exact verification)")
		parallel  = flag.Int("parallel", 0, "scoring workers (0 = one per CPU)")
		filterStr = flag.String("filter", "", "filters, e.g. \"price>10;region=west\" (separators ; , ops = != < <= > >=)")
		width     = flag.Int("width", 60, "sparkline width")
	)
	var regexes multiFlag
	flag.Var(&regexes, "regex", "visual regular expression query (repeatable: each -regex adds one query to the batch)")
	flag.Parse()
	if err := run(*dataPath, *demo, *zAttr, *xAttr, *yAttr, *agg, regexes, *nl,
		*k, *algName, *pruning, *parallel, *filterStr, *width); err != nil {
		fmt.Fprintln(os.Stderr, "shapesearch:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated occurrences of one string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ", ") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run(dataPath, demo, zAttr, xAttr, yAttr, agg string, regexes []string, nl string,
	k int, algName string, pruning bool, parallel int, filterStr string, width int) error {
	tbl, spec, err := loadData(dataPath, demo, zAttr, xAttr, yAttr)
	if err != nil {
		return err
	}
	spec.Agg, err = dataset.ParseAgg(agg)
	if err != nil {
		return err
	}
	spec.Filters, err = parseFilters(filterStr)
	if err != nil {
		return err
	}

	var qs []shapesearch.Query
	switch {
	case len(regexes) > 0 && nl != "":
		return fmt.Errorf("pass either -regex or -nl, not both")
	case len(regexes) > 0:
		for _, re := range regexes {
			q, err := shapesearch.ParseRegex(re)
			if err != nil {
				return fmt.Errorf("-regex %q: %w", re, err)
			}
			qs = append(qs, q)
		}
	case nl != "":
		q, info, err := shapesearch.ParseNL(nl)
		if err != nil {
			return err
		}
		fmt.Printf("parsed: %s\n", q)
		for _, r := range info.Resolutions {
			fmt.Printf("  note: %s\n", r)
		}
		qs = append(qs, q)
	default:
		return fmt.Errorf("a query is required: -regex or -nl")
	}

	opts := shapesearch.DefaultOptions()
	opts.K = k
	opts.Pruning = pruning
	opts.Parallelism = parallel
	opts.Algorithm, err = executor.ParseAlgorithm(algName)
	if err != nil {
		return err
	}

	// Ctrl-C cancels the scoring pipeline cooperatively: workers stop
	// pulling candidates and the search returns context.Canceled instead
	// of leaving a long query running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Search through the columnar index — the same path the server serves
	// from, so CLI results and timings match served queries.
	ix := shapesearch.BuildIndex(tbl)

	if len(qs) == 1 {
		plan, err := shapesearch.Compile(qs[0], opts)
		if err != nil {
			return err
		}
		results, err := plan.SearchContext(ctx, ix, spec)
		if err != nil {
			return err
		}
		printResults(results, width)
		return nil
	}
	// Several -regex flags: one batch, one pass over the candidates.
	mp, err := shapesearch.CompileBatch(qs, opts)
	if err != nil {
		return err
	}
	perQuery, err := mp.SearchContext(ctx, ix, spec)
	if err != nil {
		return err
	}
	for i, results := range perQuery {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s\n", regexes[i])
		printResults(results, width)
	}
	return nil
}

func printResults(results []shapesearch.Result, width int) {
	if len(results) == 0 {
		fmt.Println("no matches")
		return
	}
	maxZ := 0
	for _, r := range results {
		if len(r.Z) > maxZ {
			maxZ = len(r.Z)
		}
	}
	for i, r := range results {
		fmt.Printf("%2d. %-*s  %+.3f  %s\n", i+1, maxZ, r.Z, r.Score, sparkline(r.Series.Y, width))
		if len(r.BreakXs) > 2 {
			parts := make([]string, len(r.BreakXs))
			for j, bx := range r.BreakXs {
				parts[j] = strconv.FormatFloat(bx, 'g', 4, 64)
			}
			fmt.Printf("    %*s  breaks at x = %s\n", maxZ, "", strings.Join(parts, ", "))
		}
	}
}

func loadData(dataPath, demo, zAttr, xAttr, yAttr string) (*shapesearch.Table, shapesearch.ExtractSpec, error) {
	var spec shapesearch.ExtractSpec
	switch {
	case dataPath != "" && demo != "":
		return nil, spec, fmt.Errorf("pass either -data or -demo, not both")
	case dataPath != "":
		if zAttr == "" || xAttr == "" || yAttr == "" {
			return nil, spec, fmt.Errorf("-data requires -z, -x and -y")
		}
		tbl, err := shapesearch.OpenCSV(dataPath)
		if err != nil {
			return nil, spec, err
		}
		return tbl, shapesearch.ExtractSpec{Z: zAttr, X: xAttr, Y: yAttr}, nil
	case demo != "":
		tbl, spec, err := demoData(demo)
		return tbl, spec, err
	default:
		return nil, spec, fmt.Errorf("a dataset is required: -data or -demo")
	}
}

func demoData(name string) (*shapesearch.Table, shapesearch.ExtractSpec, error) {
	switch name {
	case "stocks":
		return gen.Stocks(60, 150, 1), shapesearch.ExtractSpec{Z: "symbol", X: "day", Y: "price"}, nil
	case "genes":
		return gen.Genes(80, 48, 1), shapesearch.ExtractSpec{Z: "gene", X: "hour", Y: "expression"}, nil
	case "luminosity":
		return gen.Luminosity(40, 300, 1), shapesearch.ExtractSpec{Z: "star", X: "time", Y: "luminosity"}, nil
	case "cities":
		return gen.Cities(30, 24, 1), shapesearch.ExtractSpec{Z: "city", X: "month", Y: "temperature"}, nil
	default:
		return nil, shapesearch.ExtractSpec{}, fmt.Errorf("unknown demo %q (want stocks, genes, luminosity, or cities)", name)
	}
}

// parseFilters parses "col>num;col=str" into filter predicates.
func parseFilters(s string) ([]shapesearch.Filter, error) {
	if s == "" {
		return nil, nil
	}
	var filters []shapesearch.Filter
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		f, err := parseFilter(clause)
		if err != nil {
			return nil, err
		}
		filters = append(filters, f)
	}
	return filters, nil
}

func parseFilter(clause string) (shapesearch.Filter, error) {
	ops := []struct {
		text string
		op   shapesearch.Filter
	}{
		{"!=", shapesearch.Filter{Op: shapesearch.Ne}},
		{"<=", shapesearch.Filter{Op: shapesearch.Le}},
		{">=", shapesearch.Filter{Op: shapesearch.Ge}},
		{"<", shapesearch.Filter{Op: shapesearch.Lt}},
		{">", shapesearch.Filter{Op: shapesearch.Gt}},
		{"=", shapesearch.Filter{Op: shapesearch.Eq}},
	}
	for _, cand := range ops {
		idx := strings.Index(clause, cand.text)
		if idx <= 0 {
			continue
		}
		f := cand.op
		f.Col = strings.TrimSpace(clause[:idx])
		val := strings.TrimSpace(clause[idx+len(cand.text):])
		if num, err := strconv.ParseFloat(val, 64); err == nil {
			f.Num = num
		} else {
			f.Str = val
		}
		return f, nil
	}
	return shapesearch.Filter{}, fmt.Errorf("cannot parse filter %q (want col<op>value)", clause)
}

// gapRune draws a sample that is NaN or ±Inf.
const gapRune = '·'

// sparkline renders a series as unicode block characters. The blocks span
// the finite samples' range; a non-finite sample (or a bucket averaging
// one in) is drawn as gapRune.
func sparkline(ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	if width <= 0 {
		width = 60
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	// Downsample by averaging buckets.
	sampled := make([]float64, 0, width)
	if len(ys) <= width {
		sampled = ys
	} else {
		per := float64(len(ys)) / float64(width)
		for i := 0; i < width; i++ {
			lo := int(float64(i) * per)
			hi := int(float64(i+1) * per)
			if hi > len(ys) {
				hi = len(ys)
			}
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range ys[lo:hi] {
				sum += v
			}
			sampled = append(sampled, sum/float64(hi-lo))
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range sampled {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	top := len(blocks) - 1
	var sb strings.Builder
	for _, v := range sampled {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			sb.WriteRune(gapRune)
			continue
		}
		// The comparisons also catch a span that overflowed to +Inf.
		idx := 0
		if f := (v - lo) / span * float64(top); f >= float64(top) {
			idx = top
		} else if f > 0 {
			idx = int(f)
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}
