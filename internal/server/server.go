// Package server implements ShapeSearch's REST back-end (Section 2: "All
// queries are issued to the back-end using a REST protocol"): dataset
// upload and listing, query parsing with correction-panel feedback, and
// shape search.
//
// Endpoints:
//
//	GET  /api/health                     liveness probe
//	GET  /api/datasets                   list registered datasets
//	POST /api/datasets/{name}            upload a CSV body as a dataset
//	POST /api/parse                      parse a query (regex, nl, sketch)
//	POST /api/search                     parse + execute, returning top-k
//	POST /api/append?dataset={name}      append a CSV body to a dataset
//
// Each POST body has a size limit of its own (maxParseBody and its
// siblings); a larger body is answered 413 with a JSON error.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/server/faultinject"
	"shapesearch/internal/shape"
	"shapesearch/internal/sketch"
)

// Server hosts datasets and serves shape queries. Safe for concurrent use.
type Server struct {
	mu sync.RWMutex
	// indexes holds one columnar dataset.Index per registered dataset;
	// Register builds it once at upload so every search extracts through
	// dictionary-encoded grouping and vectorized filters.
	indexes  map[string]*dataset.Index
	versions map[string]uint64
	// deltaVersions counts appends per dataset. Unlike versions it is NOT
	// part of the candidate-cache key: cached entries survive appends and
	// are patched in place, and the delta version scopes the fetch
	// singleflight and the validate-at-store check instead.
	deltaVersions map[string]uint64
	// appendMu serializes AppendRows end to end (index append, delta-version
	// bump, cache patching) so patchers never interleave. Searches are not
	// blocked by it.
	appendMu sync.Mutex
	// rebuildThreshold is the shape-index staleness (ids touched since the
	// last full build) past which an append schedules a background rebuild
	// of a cached entry's index.
	rebuildThreshold int
	// rebuildWG tracks in-flight background index rebuilds; tests wait on
	// it to make rebuild completion deterministic.
	rebuildWG sync.WaitGroup
	nl        *nlparser.Parser
	mux       *http.ServeMux
	// cache holds the grouped candidates per dataset version and visual
	// parameters (cachedCandidates); plans holds compiled executor plans
	// per query fingerprint and score-relevant options (planKey).
	cache *lru[cachedCandidates]
	plans *lru[*executor.Plan]
	// vizPool shares grouped charts across candidate-cache entries: a fill
	// or an append patch gets back the live Viz of any series it groups
	// that another entry (or a running request) already holds, with every
	// memo built on it. It holds charts weakly, so the candidate cache
	// alone decides what stays in memory.
	vizPool executor.VizPool
	// adm is the bounded search queue in front of scoring (admission.go):
	// it caps concurrent searches, queues arrivals FIFO per tenant with a
	// queue-time budget, sheds the rest with 429 + Retry-After, and hands
	// every admitted request its scoring-worker budget from a fixed pool.
	adm *admission
	// searchTimeout bounds one search's end-to-end time in nanoseconds
	// (0 = unbounded), queueing included: the deadline starts before
	// admission, so a request that would expire before a slot frees is
	// answered from the queue without consuming a scoring worker.
	searchTimeout atomic.Int64
	// appendYieldMax bounds how long an HTTP append yields to interactive
	// searches before proceeding anyway (graceful degradation: ingestion
	// slows under overload, but is never starved).
	appendYieldMax time.Duration
	// rebuildPauseMax likewise bounds how long a background shape-index
	// rebuild waits for a calm window. Patched indexes stay sound at any
	// staleness, so pausing the rebuild costs pruning quality only.
	rebuildPauseMax time.Duration
	// logf sinks serving-path log lines (dropped requests, yields);
	// overridable so tests can capture or silence it.
	logf func(format string, args ...any)
}

// indexMinVizs is the corpus size at which a candidate-cache entry also
// carries a prebuilt shape index: repeated queries then traverse the corpus
// best-first instead of bounding every candidate. Below it the index build
// costs more than the first few searches save.
const indexMinVizs = 256

// Option configures a Server at construction.
type Option func(*Server)

// WithCandidateCacheCapacity bounds the number of cached candidate sets
// (default 64). n <= 0 keeps the default.
func WithCandidateCacheCapacity(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.cache = newLRU[cachedCandidates](n)
		}
	}
}

// WithPlanCacheCapacity bounds the number of cached compiled plans
// (default 128). n <= 0 keeps the default.
func WithPlanCacheCapacity(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.plans = newLRU[*executor.Plan](n)
		}
	}
}

// defaultRebuildThreshold is the shape-index staleness at which an append
// schedules a background full rebuild of a cached entry's index. Patched
// indexes stay sound at any staleness — the threshold only bounds
// clustering decay (and hence pruning quality), so it can sit well above
// the typical delta size.
const defaultRebuildThreshold = 1024

// WithIndexRebuildThreshold sets the shape-index staleness past which an
// append triggers a background full rebuild of a cached candidate set's
// index (default 1024 touched ids). n <= 0 keeps the default.
func WithIndexRebuildThreshold(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.rebuildThreshold = n
		}
	}
}

// WithSearchConcurrency caps the number of concurrently admitted searches
// (default: the core count). Arrivals beyond it queue, then shed.
// n <= 0 keeps the default.
func WithSearchConcurrency(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.adm.concurrency = n
		}
	}
}

// WithSearchQueueDepth bounds the admission queue across all tenants
// (default 64); arrivals past a full queue are shed immediately with
// 429 + Retry-After. n <= 0 keeps the default.
func WithSearchQueueDepth(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.adm.queueDepth = n
		}
	}
}

// WithSearchQueueWait sets the queue-time budget: a request still queued
// after d is shed with 429 + Retry-After rather than admitted late
// (default 2s). d <= 0 keeps the default.
func WithSearchQueueWait(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.adm.queueWait = d
		}
	}
}

// WithTenantConcurrency caps one tenant's concurrently admitted searches
// (default: no per-tenant cap beyond the global concurrency). With a cap
// set, a hot tenant's burst queues behind its own cap while other
// tenants' requests keep flowing — freed slots are granted round-robin
// across tenants. n <= 0 keeps the default.
func WithTenantConcurrency(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.adm.tenantCap = n
		}
	}
}

// New returns a server with no datasets registered.
func New(opts ...Option) *Server {
	s := &Server{
		indexes:          make(map[string]*dataset.Index),
		versions:         make(map[string]uint64),
		deltaVersions:    make(map[string]uint64),
		rebuildThreshold: defaultRebuildThreshold,
		nl:               nlparser.NewParser(),
		cache:            newLRU[cachedCandidates](defaultCacheCapacity),
		plans:            newLRU[*executor.Plan](defaultPlanCacheCapacity),
		adm:              newAdmission(runtime.GOMAXPROCS(0)),
		appendYieldMax:   defaultAppendYieldMax,
		rebuildPauseMax:  defaultRebuildPauseMax,
		logf:             log.Printf,
	}
	for _, opt := range opts {
		opt(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", s.handleHealth)
	mux.HandleFunc("/api/datasets", s.handleDatasets)
	mux.HandleFunc("/api/datasets/", s.handleDatasetUpload)
	mux.HandleFunc("/api/parse", s.handleParse)
	mux.HandleFunc("/api/search", s.handleSearch)
	mux.HandleFunc("/api/append", s.handleAppend)
	s.mux = mux
	return s
}

// Register adds (or replaces) a named dataset under a fresh columnar
// index, built before the version bump publishes the dataset. The index
// does no per-row work up front (the table encoded its string columns
// when it was built): the first search on a (z, x) pair pays its layout
// sort, and later searches reuse it. Replacing a dataset bumps its
// version, invalidating every cached candidate set built from the old
// data.
//
// The server takes ownership of t: AppendRows grows its columns in place,
// so callers must not retain or mutate the table after registering it.
func (s *Server) Register(name string, t *dataset.Table) {
	ix := dataset.BuildIndex(t)
	s.mu.Lock()
	s.indexes[name] = ix
	s.versions[name]++
	s.mu.Unlock()
	// The version bump already makes stale entries unreachable; dropping
	// them too returns the memory immediately.
	s.cache.removePrefix(datasetKeyPrefix(name))
}

// DisableCache turns the candidate cache off (used by benchmarks to
// measure the uncached serving path): every search extracts and groups
// afresh, without coalescing, and nothing is stored.
func (s *Server) DisableCache() { s.cache.disable() }

// SetSearchTimeout bounds the end-to-end time of each /api/search request
// (queue wait plus scoring); d <= 0 removes the bound. A request whose
// deadline expires gets 503 + Retry-After and its workers return to the
// pool within one candidate's scoring time; a disconnected client is
// logged and dropped without a response.
func (s *Server) SetSearchTimeout(d time.Duration) { s.searchTimeout.Store(int64(d)) }

// Request body limits, one per endpoint. The server reads at most one byte
// past a limit and answers such a body 413 with a JSON error (see
// writeBodyErr).
const (
	// maxParseBody bounds POST /api/parse: one query text or sketch.
	maxParseBody = 256 << 10
	// maxSearchBody bounds POST /api/search: a batch of queries, their
	// sketches and the filters.
	maxSearchBody = 1 << 20
	// maxAppendBody bounds POST /api/append: one CSV delta.
	maxAppendBody = 4 << 20
	// maxUploadBody bounds POST /api/datasets/{name}: a whole CSV table.
	// Larger tables are registered at start-up (shapeserver -load).
	maxUploadBody = 16 << 20
)

// decodeJSONBody decodes r's body into v. The body must hold one JSON value
// and nothing after it but whitespace, all within limit bytes: the
// decoder would otherwise stop at the value's end, accepting trailing
// garbage and never tripping the limit.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return errors.New("data after the JSON value")
	}
}

// writeBodyErr answers an error from reading or decoding a request body:
// 413 when the body passed its limit (http.MaxBytesReader), else 400 with
// the error after prefix.
func writeBodyErr(w http.ResponseWriter, prefix string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, prefix+err.Error())
}

// defaultAppendYieldMax and defaultRebuildPauseMax bound how long
// background work (HTTP appends, shape-index rebuilds) yields to
// interactive searches under load before proceeding anyway. Both are
// graceful-degradation knobs, not correctness: appends and patched
// indexes are sound regardless of when they run.
const (
	defaultAppendYieldMax  = 500 * time.Millisecond
	defaultRebuildPauseMax = 30 * time.Second
)

// tenantID extracts the quota dimension for admission control: the
// X-Tenant header, falling back to the API key (Authorization header),
// then the anonymous tenant "".
func tenantID(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.Header.Get("Authorization")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// datasetInfo describes a registered dataset.
type datasetInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Columns []string `json:"columns"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.RLock()
	infos := make([]datasetInfo, 0, len(s.indexes))
	for name, ix := range s.indexes {
		// ix.NumRows, not ix.Table().NumRows: the row count moves under the
		// index's data lock when appends are in flight.
		infos = append(infos, datasetInfo{Name: name, Rows: ix.NumRows(), Columns: ix.Table().ColumnNames()})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST with a CSV body")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/api/datasets/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusBadRequest, "dataset name must be a single path segment")
		return
	}
	t, err := dataset.FromCSV(http.MaxBytesReader(w, r.Body, maxUploadBody))
	if err != nil {
		writeBodyErr(w, "", err)
		return
	}
	s.Register(name, t)
	writeJSON(w, http.StatusCreated, datasetInfo{Name: name, Rows: t.NumRows(), Columns: t.ColumnNames()})
}

// parseRequest is the body of /api/parse and the query part of /api/search.
type parseRequest struct {
	// Kind is "regex", "nl" or "sketch".
	Kind  string `json:"kind"`
	Query string `json:"query,omitempty"`
	// Sketch points (domain coordinates) for kind "sketch".
	Sketch []shape.Point `json:"sketch,omitempty"`
	// Exact selects precise L2 matching for sketches; the default infers a
	// blurry pattern sequence.
	Exact bool `json:"exact,omitempty"`
}

// parseResponse echoes the structured interpretation for the correction
// panel (Section 4, "Parsed ShapeQuery Validation").
type parseResponse struct {
	Canonical   string        `json:"canonical"`
	Fuzzy       bool          `json:"fuzzy"`
	Entities    []taggedToken `json:"entities,omitempty"`
	Resolutions []string      `json:"resolutions,omitempty"`
}

type taggedToken struct {
	Word   string `json:"word"`
	POS    string `json:"pos"`
	Entity string `json:"entity"`
}

func (s *Server) parseQuery(req parseRequest) (shape.Query, *parseResponse, error) {
	switch req.Kind {
	case "regex", "":
		q, err := regexlang.Parse(req.Query)
		if err != nil {
			return shape.Query{}, nil, err
		}
		return q, &parseResponse{Canonical: q.String(), Fuzzy: q.IsFuzzy()}, nil
	case "nl":
		q, info, err := s.nl.Parse(req.Query)
		resp := &parseResponse{}
		if info != nil {
			for _, tt := range info.Tagged {
				resp.Entities = append(resp.Entities, taggedToken{
					Word: tt.Token.Text, POS: string(tt.POS), Entity: tt.Entity,
				})
			}
			resp.Resolutions = info.Resolutions
		}
		if err != nil {
			return shape.Query{}, resp, err
		}
		resp.Canonical = q.String()
		resp.Fuzzy = q.IsFuzzy()
		return q, resp, nil
	case "sketch":
		var q shape.Query
		var err error
		if req.Exact {
			q, err = sketch.ExactQuery(req.Sketch)
		} else {
			q, err = sketch.BlurryQuery(req.Sketch, sketch.DefaultConfig())
		}
		if err != nil {
			return shape.Query{}, nil, err
		}
		return q, &parseResponse{Canonical: q.String(), Fuzzy: q.IsFuzzy()}, nil
	default:
		return shape.Query{}, nil, fmt.Errorf("unknown query kind %q (want regex, nl, or sketch)", req.Kind)
	}
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req parseRequest
	if err := decodeJSONBody(w, r, maxParseBody, &req); err != nil {
		writeBodyErr(w, "invalid JSON: ", err)
		return
	}
	_, resp, err := s.parseQuery(req)
	if err != nil {
		// Parse errors still carry the partial interpretation so the
		// correction panel can show what was understood.
		payload := map[string]any{"error": err.Error()}
		if resp != nil {
			payload["partial"] = resp
		}
		writeJSON(w, http.StatusUnprocessableEntity, payload)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// searchRequest is the body of /api/search. A request carries either one
// query (the embedded parseRequest fields) or a batch (Queries); the
// visual parameters — dataset, z/x/y, agg, filters — and the execution
// options apply to every query in a batch, and the batch executes in one
// pass over the candidates (see executor.MultiPlan).
type searchRequest struct {
	parseRequest
	// Queries is the batch form: each entry is parsed like the top-level
	// query fields. Mutually exclusive with them.
	Queries []parseRequest `json:"queries,omitempty"`
	Dataset string         `json:"dataset"`
	Z       string         `json:"z"`
	X       string         `json:"x"`
	Y       string         `json:"y"`
	Agg     string         `json:"agg,omitempty"`
	Filters []filterSpec   `json:"filters,omitempty"`
	K       int            `json:"k,omitempty"`
	// Algorithm: auto, dp, segmenttree, greedy, dtw, euclidean.
	Algorithm string `json:"algorithm,omitempty"`
	Pruning   bool   `json:"pruning,omitempty"`
	// Parallelism caps the scoring workers for this request. It is an
	// upper bound, not a guarantee: admission control grants each admitted
	// request a fair share of the worker pool at the admitted concurrency,
	// and an explicit value only ever lowers that grant (0, the default,
	// accepts the full grant).
	Parallelism int `json:"parallelism,omitempty"`
	// MaxPoints caps the number of series points echoed per result
	// (downsampled for plotting); 0 means 200.
	MaxPoints int `json:"maxPoints,omitempty"`
}

type filterSpec struct {
	Col string  `json:"col"`
	Op  string  `json:"op"`
	Num float64 `json:"num,omitempty"`
	Str string  `json:"str,omitempty"`
}

// searchResponse is the /api/search reply. Single-query requests populate
// Parse and Results; batch requests populate Queries (one entry per input
// query, in input order).
type searchResponse struct {
	Parse   parseResponse      `json:"parse,omitzero"`
	Results []searchResult     `json:"results,omitempty"`
	Queries []batchQueryResult `json:"queries,omitempty"`
	Debug   *searchDebug       `json:"debug,omitempty"`
}

// batchQueryResult is one query's slice of a batch reply.
type batchQueryResult struct {
	Parse   parseResponse  `json:"parse"`
	Results []searchResult `json:"results"`
}

// searchDebug carries serving-layer instrumentation.
type searchDebug struct {
	PlanCache planCacheDebug `json:"plan_cache"`
}

// planCacheDebug reports whether this request's plan(s) came from the
// compiled-plan cache (Hit = every plan in the request was cached or
// coalesced) plus the server-lifetime counters.
type planCacheDebug struct {
	Hit    bool   `json:"hit"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

type searchResult struct {
	Z       string    `json:"z"`
	Score   float64   `json:"score"`
	BreakXs []float64 `json:"breakXs,omitempty"`
	X       []float64 `json:"x"`
	Y       []float64 `json:"y"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req searchRequest
	if err := decodeJSONBody(w, r, maxSearchBody, &req); err != nil {
		writeBodyErr(w, "invalid JSON: ", err)
		return
	}
	batch := len(req.Queries) > 0
	if batch && (req.Kind != "" || req.Query != "" || len(req.Sketch) > 0) {
		writeError(w, http.StatusBadRequest, "use either the top-level query fields or queries, not both")
		return
	}
	s.mu.RLock()
	ix, ok := s.indexes[req.Dataset]
	version := s.versions[req.Dataset]
	dv := s.deltaVersions[req.Dataset]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no dataset %q", req.Dataset))
		return
	}
	spec, err := buildSpec(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// opts is the compile-time option set shared by every query in the
	// request. Parallelism stays at its default here: plans are cached
	// across requests, so the per-request worker budget is applied by
	// wrapping the cached plan (WithParallelism), not baked in at compile.
	opts := executor.DefaultOptions()
	if req.K > 0 {
		opts.K = req.K
	}
	opts.Pruning = req.Pruning
	if alg, err := executor.ParseAlgorithm(req.Algorithm); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	} else {
		opts.Algorithm = alg
	}
	// The request's context governs queueing and the whole data path: with
	// a per-request timeout configured, the deadline starts before
	// admission, so time spent waiting for a slot counts against it and a
	// request that would expire before a slot frees is answered from the
	// queue (503 + Retry-After) without ever consuming a scoring worker.
	ctx := r.Context()
	if d := time.Duration(s.searchTimeout.Load()); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// One admission per request: a batch shares one slot and one worker
	// budget, since MultiPlan scores all its queries in a single pass over
	// the corpus. The deferred release pairs with every return below —
	// enforced by the admissionpair analyzer.
	tk, err := s.adm.admit(ctx, tenantID(r), req.Parallelism)
	if err != nil {
		s.writeSearchErr(w, r, err)
		return
	}
	defer tk.release()
	faultinject.Fire("server.search.admitted")
	s.searchBatch(ctx, w, r, req, ix, version, dv, spec, opts, tk.budget)
}

// compilePlan serves a compiled plan through the plan cache: the query is
// normalized once to derive its fingerprint, and structurally identical
// queries — however they were spelled, whatever front end parsed them —
// share one compilation. A request coalesced onto another's compile waits
// under its own ctx and gets ctx.Err() if that expires first.
func (s *Server) compilePlan(ctx context.Context, q shape.Query, opts executor.Options) (*executor.Plan, bool, error) {
	norm, err := shape.Normalize(q)
	if err != nil {
		return nil, false, err
	}
	key := planKey(norm.Fingerprint(), opts.Algorithm, opts.K, opts.Pruning)
	return s.plans.fetch(ctx, key, "", nil, func() (*executor.Plan, error) {
		return executor.Compile(q, opts)
	})
}

// fetchCandidates runs the candidate cache fetch for one plan + spec, whose
// candidate key (Plan.CandidateKey) is ckey, and handles the surrounding
// protocol: the pre-fetch expiry check and error status mapping. On
// failure it writes the error response and returns nil.
//
// Repeated queries over the same visual parameters (dataset version +
// effective extract spec + group config) reuse the grouped Viz slices and
// skip EXTRACT + GROUP entirely; concurrent cold misses coalesce into one
// extraction. The expiry check sits outside the fetch closure on purpose:
// a dead request must not start an extraction, but a request dying
// mid-fetch must not poison coalesced waiters sharing the singleflight —
// their extraction completes and populates the cache regardless.
//
// The validate closure closes the build-vs-data-change race: a result is
// stored only if, atomically under the cache lock, both the dataset
// version (bumped by Register) and the delta version (bumped by
// AppendRows) still match what this request observed at admission. A build
// that raced a replacement would occupy an unreachable slot forever; one
// that raced an append could have extracted pre-append rows yet be written
// after the patcher ran, silently serving stale candidates from then on.
// Both interleavings now die at the store instead.
func (s *Server) fetchCandidates(ctx context.Context, w http.ResponseWriter, r *http.Request, ds string, version, dv uint64, ix *dataset.Index, plan *executor.Plan, spec dataset.ExtractSpec, ckey string) (cachedCandidates, error) {
	if err := ctx.Err(); err != nil {
		s.writeSearchErr(w, r, err)
		return cachedCandidates{}, err
	}
	key := cacheKey(ds, version, ckey)
	validate := func() bool {
		s.mu.RLock()
		ok := s.versions[ds] == version && s.deltaVersions[ds] == dv
		s.mu.RUnlock()
		return ok
	}
	cands, _, err := s.cache.fetch(ctx, key, strconv.FormatUint(dv, 10), validate, func() (cachedCandidates, error) {
		faultinject.Fire("server.extract")
		espec := plan.EffectiveSpec(spec)
		series, err := ix.Extract(espec)
		if err != nil {
			return cachedCandidates{}, err
		}
		vizs := plan.GroupSeriesPooled(&s.vizPool, series)
		cc := cachedCandidates{vizs: vizs, espec: espec, plan: plan, patchable: plan.PinFree()}
		if len(vizs) >= indexMinVizs {
			// The index is query-independent (built from the vizs alone), so
			// every plan sharing this candidate key shares it too.
			//lint:ignore ctxpropagate the singleflight build serves every coalesced waiter and the cache, so one caller's cancellation must not abort it
			cc.index = executor.BuildVizIndex(vizs, 0)
		}
		return cc, nil
	})
	if err != nil {
		s.writeSearchErr(w, r, err)
		return cachedCandidates{}, err
	}
	return cands, nil
}

// searchBatch parses, compiles, fetches and scores the queries of one
// /api/search request; a single query is a batch of one. Every query is
// served through the plan cache, queries whose candidate sets provably
// coincide (equal Plan.CandidateKey — same effective extract spec and
// group config) share one candidate-cache entry, and each such group is
// scored in a single pass over its candidates by executor.MultiPlan.
// Scoring runs under the request's context: a disconnecting client (or the
// configured per-request timeout) cancels the worker pool instead of
// letting an abandoned query keep burning cores. A cached shape index
// routes the group through the best-first traversal (engines it cannot
// serve fall back to the flat pipeline inside RunIndexedContext).
//
// The batch form replies with one entry per query in input order and
// prefixes a query's error with its index; the single form replies with
// parse and results.
func (s *Server) searchBatch(ctx context.Context, w http.ResponseWriter, r *http.Request, req searchRequest, ix *dataset.Index, version, dv uint64, spec dataset.ExtractSpec, opts executor.Options, budget int) {
	batch := len(req.Queries) > 0
	queries := req.Queries
	if !batch {
		queries = []parseRequest{req.parseRequest}
	}
	queryErr := func(i int, err error) string {
		if !batch {
			return err.Error()
		}
		return fmt.Sprintf("query %d: %s", i, err)
	}
	parses := make([]parseResponse, len(queries))
	plans := make([]*executor.Plan, len(queries))
	allHit := true
	for i, pr := range queries {
		q, presp, err := s.parseQuery(pr)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, queryErr(i, err))
			return
		}
		parses[i] = *presp
		plan, hit, err := s.compilePlan(ctx, q, opts)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				// Expired while coalesced onto another request's compile.
				s.writeSearchErr(w, r, err)
			} else {
				writeError(w, http.StatusBadRequest, queryErr(i, err))
			}
			return
		}
		allHit = allHit && hit
		plans[i] = plan.WithParallelism(budget)
	}
	// Group queries by candidate key: one EXTRACT + GROUP (or one cache
	// hit) and one multi-query scoring pass per distinct key.
	groups := make(map[string][]int, len(plans))
	order := make([]string, 0, len(plans))
	for i, p := range plans {
		k := p.CandidateKey(spec)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	results := make([][]executor.Result, len(plans))
	for _, k := range order {
		idxs := groups[k]
		group := make([]*executor.Plan, len(idxs))
		for gi, qi := range idxs {
			group[gi] = plans[qi]
		}
		mp, err := executor.NewMultiPlan(group)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		cands, err := s.fetchCandidates(ctx, w, r, req.Dataset, version, dv, ix, group[0], spec, k)
		if err != nil {
			return // fetchCandidates wrote the error response
		}
		faultinject.Fire("server.search.score")
		var res [][]executor.Result
		if cands.index != nil {
			res, err = mp.RunIndexedContext(ctx, cands.index)
		} else {
			res, err = mp.RunGroupedContext(ctx, cands.vizs)
		}
		if err != nil {
			s.writeSearchErr(w, r, err)
			return
		}
		for gi, qi := range idxs {
			results[qi] = res[gi]
		}
	}
	resp := searchResponse{Debug: s.planDebug(allHit)}
	if !batch {
		resp.Parse = parses[0]
		resp.Results = renderResults(results[0], req.MaxPoints)
	} else {
		resp.Queries = make([]batchQueryResult, len(plans))
		for i := range plans {
			resp.Queries[i] = batchQueryResult{
				Parse:   parses[i],
				Results: renderResults(results[i], req.MaxPoints),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// planDebug snapshots the plan-cache counters for the response debug
// block. hit reports whether every plan in this request was served from
// cache (or coalesced onto an in-flight compile).
func (s *Server) planDebug(hit bool) *searchDebug {
	hits, misses := s.plans.stats()
	return &searchDebug{PlanCache: planCacheDebug{Hit: hit, Hits: hits, Misses: misses}}
}

// renderResults converts executor results to the wire form, downsampling
// each series to maxPts points (<=0 means 200) for plotting.
func renderResults(results []executor.Result, maxPts int) []searchResult {
	if maxPts <= 0 {
		maxPts = 200
	}
	out := make([]searchResult, 0, len(results))
	for _, res := range results {
		x, y := downsample(res.Series.X, res.Series.Y, maxPts)
		out = append(out, searchResult{
			Z: res.Z, Score: res.Score, BreakXs: res.BreakXs, X: x, Y: y,
		})
	}
	return out
}

// writeSearchErr maps a search-path error — from admission, extraction, or
// scoring — to the wire:
//
//   - shed by admission control → 429 Too Many Requests + Retry-After
//     (the request never consumed a scoring worker; retrying is the right
//     move once load drains);
//   - expired deadline (the configured search timeout, or the client's
//     own) → 503 Service Unavailable + Retry-After: the query was valid,
//     the server just could not finish it in time;
//   - disconnected client → logged and dropped without writing a status:
//     there is nobody left to read one, and synthesizing a 503 would count
//     an abandoned request as a server failure;
//   - anything else → 400.
func (s *Server) writeSearchErr(w http.ResponseWriter, r *http.Request, err error) {
	var oe *overloadError
	switch {
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", strconv.Itoa(oe.retryAfter))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, "search deadline exceeded: "+err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, errClientGone):
		s.logf("server: dropped %s %s: client disconnected (%v)", r.Method, r.URL.Path, err)
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func buildSpec(req searchRequest) (dataset.ExtractSpec, error) {
	agg, err := dataset.ParseAgg(req.Agg)
	if err != nil {
		return dataset.ExtractSpec{}, err
	}
	spec := dataset.ExtractSpec{Z: req.Z, X: req.X, Y: req.Y, Agg: agg}
	for _, f := range req.Filters {
		op, err := opByName(f.Op)
		if err != nil {
			return spec, err
		}
		spec.Filters = append(spec.Filters, dataset.Filter{Col: f.Col, Op: op, Num: f.Num, Str: f.Str})
	}
	return spec, nil
}

func opByName(name string) (dataset.FilterOp, error) {
	switch name {
	case "=", "eq", "":
		return dataset.Eq, nil
	case "!=", "ne":
		return dataset.Ne, nil
	case "<", "lt":
		return dataset.Lt, nil
	case "<=", "le":
		return dataset.Le, nil
	case ">", "gt":
		return dataset.Gt, nil
	case ">=", "ge":
		return dataset.Ge, nil
	default:
		return dataset.Eq, fmt.Errorf("unknown filter operator %q", name)
	}
}

// downsample thins a series to at most n points, keeping endpoints (the
// first point alone when n is 1).
func downsample(x, y []float64, n int) ([]float64, []float64) {
	if len(x) <= n {
		return x, y
	}
	if n == 1 {
		return x[:1], y[:1]
	}
	ox := make([]float64, 0, n)
	oy := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Integer math: a float step rounds i*step one below the last
		// index for some lengths, dropping the final point.
		j := i * (len(x) - 1) / (n - 1)
		ox = append(ox, x[j])
		oy = append(oy, y[j])
	}
	return ox, oy
}

// writeJSON encodes v before it writes the status, so a reply JSON cannot
// encode (a non-finite number, say) becomes a 500 with a JSON error instead
// of an empty reply under code. The body keeps json.Encoder's trailing
// newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding reply: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
