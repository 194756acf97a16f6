package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"shapesearch/internal/executor"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
)

// TestSearchUsesPlanCache: repeated single-query searches compile once —
// the second identical request reports a plan-cache hit, and spelling the
// same normalized query differently still hits (fingerprint keying).
func TestSearchUsesPlanCache(t *testing.T) {
	s := testServer(t)
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y",
	}
	var first searchResponse
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Debug == nil {
		t.Fatal("response carries no debug block")
	}
	if first.Debug.PlanCache.Hit {
		t.Fatal("first request reported a plan-cache hit")
	}
	var second searchResponse
	rec = doJSON(t, s, http.MethodPost, "/api/search", req)
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.Debug.PlanCache.Hit {
		t.Fatal("identical second request missed the plan cache")
	}
	if second.Debug.PlanCache.Hits < 1 || second.Debug.PlanCache.Misses < 1 {
		t.Fatalf("counters = %+v", second.Debug.PlanCache)
	}
	// A different spelling of the same normalized query shares the plan.
	req.Query = "(u) ⊗ (d)"
	var third searchResponse
	rec = doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &third); err != nil {
		t.Fatal(err)
	}
	if !third.Debug.PlanCache.Hit {
		t.Fatal("respelled query missed the plan cache")
	}
	// Different K compiles a different plan (K shapes the top-k heap).
	req.K = 1
	var fourth searchResponse
	rec = doJSON(t, s, http.MethodPost, "/api/search", req)
	if err := json.Unmarshal(rec.Body.Bytes(), &fourth); err != nil {
		t.Fatal(err)
	}
	if fourth.Debug.PlanCache.Hit {
		t.Fatal("different K wrongly hit the plan cache")
	}
}

// TestSearchBatch: the batch form returns per-query results identical to
// issuing each query alone, in input order, from one request.
func TestSearchBatch(t *testing.T) {
	s := testServer(t)
	queries := []parseRequest{
		{Kind: "regex", Query: "u ; d"},
		{Kind: "regex", Query: "u"},
		{Kind: "nl", Query: "rising then falling"},
	}
	req := searchRequest{
		Queries: queries,
		Dataset: "demo", Z: "z", X: "x", Y: "y", K: 2,
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var batch searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Queries) != len(queries) {
		t.Fatalf("got %d query results, want %d", len(batch.Queries), len(queries))
	}
	if len(batch.Results) != 0 {
		t.Fatalf("batch response also carried top-level results: %+v", batch.Results)
	}
	for i, pr := range queries {
		single := searchRequest{
			parseRequest: pr,
			Dataset:      "demo", Z: "z", X: "x", Y: "y", K: 2,
		}
		rec := doJSON(t, s, http.MethodPost, "/api/search", single)
		if rec.Code != http.StatusOK {
			t.Fatalf("single %d: status = %d: %s", i, rec.Code, rec.Body.String())
		}
		var want searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		got := batch.Queries[i]
		if got.Parse.Canonical != want.Parse.Canonical {
			t.Fatalf("query %d parse = %q, want %q", i, got.Parse.Canonical, want.Parse.Canonical)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("query %d: %d results, want %d", i, len(got.Results), len(want.Results))
		}
		for j := range want.Results {
			if got.Results[j].Z != want.Results[j].Z ||
				math.Float64bits(got.Results[j].Score) != math.Float64bits(want.Results[j].Score) {
				t.Fatalf("query %d result %d = (%s, %v), want (%s, %v)", i, j,
					got.Results[j].Z, got.Results[j].Score, want.Results[j].Z, want.Results[j].Score)
			}
		}
	}
}

// TestSearchBatchSharesCandidates: a batch of queries over one set of
// visual parameters extracts and groups once — after the batch, a
// follow-up identical batch is served entirely from the candidate cache.
func TestSearchBatchSharesCandidates(t *testing.T) {
	s := testServer(t)
	req := searchRequest{
		Queries: []parseRequest{
			{Kind: "regex", Query: "u ; d"},
			{Kind: "regex", Query: "d ; u"},
			{Kind: "regex", Query: "u ; d ; u"},
		},
		Dataset: "demo", Z: "z", X: "x", Y: "y",
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	hits, misses := s.cache.stats()
	if misses != 1 {
		t.Fatalf("batch of 3 same-spec queries cost %d candidate extractions, want 1 (hits=%d)", misses, hits)
	}
	rec = doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	hits2, misses2 := s.cache.stats()
	if misses2 != 1 || hits2 != hits+1 {
		t.Fatalf("second batch: hits %d→%d misses %d→%d, want one more hit, no more misses",
			hits, hits2, misses, misses2)
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Debug == nil || !resp.Debug.PlanCache.Hit {
		t.Fatal("repeated batch did not report a full plan-cache hit")
	}
}

// TestSearchBatchErrors: malformed batches fail with per-query context and
// the right status codes.
func TestSearchBatchErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		req  searchRequest
		code int
	}{
		{
			"mixed single and batch",
			searchRequest{
				parseRequest: parseRequest{Kind: "regex", Query: "u"},
				Queries:      []parseRequest{{Kind: "regex", Query: "d"}},
				Dataset:      "demo", Z: "z", X: "x", Y: "y",
			},
			http.StatusBadRequest,
		},
		{
			"bad query in batch",
			searchRequest{
				Queries: []parseRequest{{Kind: "regex", Query: "u"}, {Kind: "regex", Query: "["}},
				Dataset: "demo", Z: "z", X: "x", Y: "y",
			},
			http.StatusUnprocessableEntity,
		},
	}
	for _, c := range cases {
		rec := doJSON(t, s, http.MethodPost, "/api/search", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
}

// TestPlanCacheEviction: the LRU bound holds — overflow evicts the least
// recently used entry, and evicted keys recompile on the next get.
func TestPlanCacheEviction(t *testing.T) {
	c := newLRU[*executor.Plan](2)
	compiles := 0
	get := func(key string) {
		t.Helper()
		_, _, err := c.fetch(context.Background(), key, "", nil, func() (*executor.Plan, error) {
			compiles++
			return executor.Compile(regexlang.MustParse("u"), executor.DefaultOptions())
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a's recency; b is now LRU
	get("c") // evicts b
	if compiles != 3 {
		t.Fatalf("compiles = %d, want 3", compiles)
	}
	get("a") // still cached
	if compiles != 3 {
		t.Fatalf("a was evicted: compiles = %d", compiles)
	}
	get("b") // evicted above, recompiles
	if compiles != 4 {
		t.Fatalf("compiles = %d, want 4", compiles)
	}
	// Compile errors are returned but never cached.
	wantErr := fmt.Errorf("boom")
	for i := 0; i < 2; i++ {
		_, _, err := c.fetch(context.Background(), "bad", "", nil, func() (*executor.Plan, error) { return nil, wantErr })
		if err != wantErr {
			t.Fatalf("err = %v", err)
		}
	}
	_, misses := c.stats()
	if misses != 6 { // a, b, c, b again, bad twice
		t.Fatalf("misses = %d, want 6", misses)
	}
}

// TestPlanWaiterHonorsContext: a search coalesced onto another request's
// in-flight compile stops waiting when its own deadline expires and gets
// 503 (a deadline, not a bad query); the leader's compile still lands in
// the plan cache.
func TestPlanWaiterHonorsContext(t *testing.T) {
	s := testServer(t)
	q := regexlang.MustParse("u ; d")
	norm, err := shape.Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := executor.DefaultOptions()
	opts.Pruning = false // what /api/search compiles for a request without pruning
	key := planKey(norm.Fingerprint(), opts.Algorithm, opts.K, opts.Pruning)
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.plans.fetch(context.Background(), key, "", nil, func() (*executor.Plan, error) {
			close(started)
			<-release
			return executor.Compile(q, opts)
		})
		leaderDone <- err
	}()
	<-started
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y",
	}
	s.SetSearchTimeout(20 * time.Millisecond)
	if rec := doJSON(t, s, http.MethodPost, "/api/search", req); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("waiter past its deadline: status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	s.SetSearchTimeout(0)
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status = %d, err = %v: %s", rec.Code, err, rec.Body.String())
	}
	if !resp.Debug.PlanCache.Hit {
		t.Fatal("the leader's compile was not cached")
	}
}
