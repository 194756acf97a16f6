// Package shapesearch is a from-scratch Go implementation of ShapeSearch
// (Siddiqui et al., SIGMOD 2020): a flexible and efficient system for
// shape-based exploration of trendlines.
//
// It provides the ShapeQuery algebra, three query specification mechanisms
// (visual regular expressions, natural language, and sketches), and a
// pattern-matching engine with the paper's segmentation algorithms
// (optimal dynamic programming, the linear-time SegmentTree, greedy and
// DTW/Euclidean baselines), push-down optimizations and lossless
// collective pruning (a bound-first scan plus deferred exact verification).
//
// Quickstart:
//
//	tbl, _ := shapesearch.OpenCSV("stocks.csv")
//	q, _ := shapesearch.ParseRegex("u ; d ; u") // rise, fall, rise
//	results, _ := shapesearch.SearchContext(context.Background(), tbl,
//	    shapesearch.ExtractSpec{Z: "symbol", X: "day", Y: "price"},
//	    q, shapesearch.DefaultOptions())
//	for _, r := range results {
//	    fmt.Println(r.Z, r.Score)
//	}
package shapesearch

import (
	"context"
	"io"

	"shapesearch/internal/crf"
	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/score"
	"shapesearch/internal/shape"
	"shapesearch/internal/sketch"
	"shapesearch/internal/udps"
)

// Core algebra types.
type (
	// Query is a parsed ShapeQuery.
	Query = shape.Query
	// Node is one node of the query tree.
	Node = shape.Node
	// Segment is a ShapeSegment (the MATCH operand).
	Segment = shape.Segment
	// Pattern is the PATTERN primitive.
	Pattern = shape.Pattern
	// Modifier is the MODIFIER primitive.
	Modifier = shape.Modifier
	// Location is the LOCATION primitive.
	Location = shape.Location
	// Point is one (x, y) sketch sample.
	Point = shape.Point
)

// Data substrate types.
type (
	// Table is an in-memory columnar dataset.
	Table = dataset.Table
	// Index is the columnar EXTRACT operator over a Table:
	// dictionary-encoded grouping keys and memoized (z, x) sort
	// permutations make repeated extraction a single pass over presorted
	// runs with vectorized filters. Build one per long-lived table (see
	// BuildIndex) and pass it wherever a Source is accepted.
	Index = dataset.Index
	// Source is a queryable data source for EXTRACT: either a bare *Table,
	// which extracts through a transient Index on every call, or an *Index,
	// which keeps what its extractions build.
	Source = dataset.Source
	// Column is one typed column of a Table.
	Column = dataset.Column
	// Series is one candidate trendline.
	Series = dataset.Series
	// ExtractSpec selects the visualization space: z, x, y, filters and
	// aggregation.
	ExtractSpec = dataset.ExtractSpec
	// Filter is one predicate on a column.
	Filter = dataset.Filter
	// Agg is the aggregation applied to duplicate (z, x) coordinates.
	Agg = dataset.Agg
	// FilterOp is a comparison operator in a filter.
	FilterOp = dataset.FilterOp
)

// Execution types.
type (
	// Options configures a search.
	Options = executor.Options
	// Plan is a compiled query, reusable (and safe for concurrent use)
	// across many RunContext/SearchContext calls.
	Plan = executor.Plan
	// MultiPlan is a batch of compiled queries that execute against a
	// corpus in one pass, sharing per-candidate work across queries while
	// keeping per-query results byte-identical to independent runs.
	MultiPlan = executor.MultiPlan
	// Result is one matched visualization.
	Result = executor.Result
	// Algorithm selects the segmentation strategy.
	Algorithm = executor.Algorithm
	// UDPRegistry holds user-defined patterns.
	UDPRegistry = score.Registry
	// UDPFunc scores a user-defined pattern over a visual segment.
	UDPFunc = score.UDPFunc
)

// NL and sketch front-end types.
type (
	// NLParser translates natural language into ShapeQueries.
	NLParser = nlparser.Parser
	// NLParseInfo is the correction-panel payload: entity tags and applied
	// ambiguity resolutions.
	NLParseInfo = nlparser.ParseInfo
	// Canvas maps stroke pixels onto a domain window.
	Canvas = sketch.Canvas
	// Pixel is one stroke sample in canvas coordinates.
	Pixel = sketch.Pixel
	// SketchConfig controls blurry sketch inference.
	SketchConfig = sketch.Config
	// CRFModel is a trained entity-tagging model.
	CRFModel = crf.Model
)

// Algorithms.
const (
	// AlgAuto picks SegmentTree for fuzzy queries (default).
	AlgAuto = executor.AlgAuto
	// AlgDP is the optimal O(n²k) dynamic program.
	AlgDP = executor.AlgDP
	// AlgSegmentTree is the O(nk³) pattern-aware segmenter.
	AlgSegmentTree = executor.AlgSegmentTree
	// AlgGreedy is the local-search baseline.
	AlgGreedy = executor.AlgGreedy
	// AlgExhaustive enumerates all segmentations (small inputs).
	AlgExhaustive = executor.AlgExhaustive
	// AlgDTW ranks by Dynamic Time Warping distance.
	AlgDTW = executor.AlgDTW
	// AlgEuclidean ranks by Euclidean distance.
	AlgEuclidean = executor.AlgEuclidean
)

// Column types.
const (
	// Float marks numeric columns.
	Float = dataset.Float
	// String marks categorical columns.
	String = dataset.String
)

// Filter operators.
const (
	// Eq tests equality.
	Eq = dataset.Eq
	// Ne tests inequality.
	Ne = dataset.Ne
	// Lt tests less-than.
	Lt = dataset.Lt
	// Le tests less-or-equal.
	Le = dataset.Le
	// Gt tests greater-than.
	Gt = dataset.Gt
	// Ge tests greater-or-equal.
	Ge = dataset.Ge
)

// Aggregations for duplicate (z, x) coordinates.
const (
	// AggNone keeps single points only.
	AggNone = dataset.AggNone
	// AggAvg averages duplicates (the default for multi-sample data).
	AggAvg = dataset.AggAvg
	// AggSum sums duplicates.
	AggSum = dataset.AggSum
	// AggMin keeps the minimum.
	AggMin = dataset.AggMin
	// AggMax keeps the maximum.
	AggMax = dataset.AggMax
	// AggCount counts duplicates.
	AggCount = dataset.AggCount
)

// DefaultOptions returns the system's default search options.
func DefaultOptions() Options { return executor.DefaultOptions() }

// NewUDPRegistry returns an empty user-defined pattern registry.
func NewUDPRegistry() *UDPRegistry { return score.NewRegistry() }

// BuiltinUDPs returns a registry pre-loaded with the mathematical pattern
// library (concave, convex, exponential, logarithmic, vshape, entropy,
// volatile, smooth) — the extension the paper's study participants asked
// for (Section 7.2). Use them like any pattern: [p=concave] & [p=up].
func BuiltinUDPs() *UDPRegistry {
	r := score.NewRegistry()
	if err := udps.Register(r); err != nil {
		panic(err) // impossible: built-in names are valid
	}
	return r
}

// OpenCSV loads a CSV dataset from disk with type inference.
func OpenCSV(path string) (*Table, error) { return dataset.OpenCSV(path) }

// ReadCSV loads a CSV dataset from a reader.
func ReadCSV(r io.Reader) (*Table, error) { return dataset.FromCSV(r) }

// ReadJSON loads a dataset from a JSON array of flat objects.
func ReadJSON(r io.Reader) (*Table, error) { return dataset.FromJSON(r) }

// NewTable builds a dataset from columns.
func NewTable(cols ...Column) (*Table, error) { return dataset.New(cols...) }

// BuildIndex returns the columnar index for a table. It does no per-row
// work: float z encodings and (z, x) sort permutations are built by the
// first extraction that needs them and memoized (a table encodes its
// string columns when it is built). Index tables that serve repeated
// queries; a one-shot extraction can pass the bare *Table, which extracts
// through a transient index.
func BuildIndex(t *Table) *Index { return dataset.BuildIndex(t) }

// Extract selects candidate trendlines from a table.
func Extract(t *Table, spec ExtractSpec) ([]Series, error) { return dataset.Extract(t, spec) }

// ParseRegex parses a visual regular expression into a ShapeQuery, e.g.
// "[x.s=2, x.e=5, p=up] ; d ; u" or "(u ⊕ d) ⊗ f".
func ParseRegex(s string) (Query, error) { return regexlang.Parse(s) }

// MustParseRegex is ParseRegex for statically known-good queries.
func MustParseRegex(s string) Query { return regexlang.MustParse(s) }

// NewNLParser returns a natural-language parser using the deterministic
// rule tagger (no training needed).
func NewNLParser() *NLParser { return nlparser.NewParser() }

// NewNLParserWithModel returns a natural-language parser backed by a
// trained CRF tagger (see TrainNLTagger).
func NewNLParserWithModel(m *CRFModel) *NLParser { return nlparser.NewParserWithModel(m) }

// ParseNL parses a natural-language query with the default parser.
func ParseNL(s string) (Query, *NLParseInfo, error) { return nlparser.NewParser().Parse(s) }

// TrainNLTagger trains a CRF entity tagger on a synthetic corpus of n
// labeled queries (the stand-in for the paper's Mechanical Turk corpus).
func TrainNLTagger(n int, seed int64) (*CRFModel, error) {
	corpus := nlparser.GenerateCorpus(n, seed)
	return crf.Train(nlparser.ToSequences(corpus), crf.DefaultTrainConfig())
}

// SketchExact builds a precise-match query from domain-coordinate sketch
// points (scored by normalized L2 distance).
func SketchExact(points []Point) (Query, error) { return sketch.ExactQuery(points) }

// SketchBlurry infers a blurry pattern-sequence query from sketch points
// via piecewise-linear segmentation.
func SketchBlurry(points []Point, cfg SketchConfig) (Query, error) {
	return sketch.BlurryQuery(points, cfg)
}

// DefaultSketchConfig returns the default blurry-inference settings.
func DefaultSketchConfig() SketchConfig { return sketch.DefaultConfig() }

// Compile prepares a query for repeated execution: validation,
// normalization, solver selection and nested sub-query compilation run
// once, and the resulting Plan can score many series collections (from
// many goroutines) via Plan.RunContext, Plan.RunGroupedContext or
// Plan.SearchContext.
func Compile(q Query, opts Options) (*Plan, error) { return executor.Compile(q, opts) }

// CompileBatch compiles several queries under one set of options into a
// MultiPlan: their unit signatures are interned into one shared table, so
// batch execution evaluates each distinct pattern once per candidate for
// the whole batch. Related queries (variants of one user intent) get the
// biggest wins; unrelated queries still share segmentation state and the
// single corpus pass.
func CompileBatch(qs []Query, opts Options) (*MultiPlan, error) {
	return executor.CompileBatch(qs, opts)
}

// NewMultiPlan builds a batch executor from already-compiled plans (e.g.
// plans served by a cache). The plans' options must agree on every
// score-relevant field; K may differ per query. The inputs are not mutated
// and remain independently usable.
func NewMultiPlan(plans []*Plan) (*MultiPlan, error) { return executor.NewMultiPlan(plans) }

// SearchBatchContext runs several queries against the source in one pass
// over the candidates — the batch analogue of SearchContext. Results are
// per query, in input order, byte-identical to running each query alone.
func SearchBatchContext(ctx context.Context, src Source, spec ExtractSpec, qs []Query, opts Options) ([][]Result, error) {
	mp, err := executor.CompileBatch(qs, opts)
	if err != nil {
		return nil, err
	}
	return mp.SearchContext(ctx, src, spec)
}

// SearchContext extracts candidate visualizations and ranks them against
// the query — the full EXTRACT → GROUP → SEGMENT → SCORE pipeline. The
// source is a bare *Table or an *Index. When ctx is canceled (or its
// deadline expires) the scoring worker pool stops pulling candidates and
// the call returns ctx.Err(). It compiles the query on every call; issue
// repeated queries through a compiled Plan (and an Index) instead.
func SearchContext(ctx context.Context, src Source, spec ExtractSpec, q Query, opts Options) ([]Result, error) {
	p, err := executor.Compile(q, opts)
	if err != nil {
		return nil, err
	}
	return p.SearchContext(ctx, src, spec)
}

// SearchSeriesContext ranks pre-extracted trendlines against the query,
// with cooperative cancellation (see SearchContext).
func SearchSeriesContext(ctx context.Context, series []Series, q Query, opts Options) ([]Result, error) {
	p, err := executor.Compile(q, opts)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, series)
}
