package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shapesearch/internal/executor"
)

func searchDemo(t *testing.T, s *Server, query, dataset string) searchResponse {
	t.Helper()
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: query},
		Dataset:      dataset, Z: "z", X: "x", Y: "y", K: 3,
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search %q on %q: status = %d: %s", query, dataset, rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func uploadCSV(t *testing.T, s *Server, name, csv string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/datasets/"+name, strings.NewReader(csv))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload %q: status = %d: %s", name, rec.Code, rec.Body.String())
	}
}

// risingCSV builds a dataset where series "best" matches u;d most strongly.
func risingCSV(best string) string {
	var sb strings.Builder
	sb.WriteString("z,x,y\n")
	for i := 0; i < 9; i++ {
		y := i
		if i > 4 {
			y = 8 - i
		}
		fmt.Fprintf(&sb, "%s,%d,%d\n", best, i, y*2)
	}
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&sb, "flatline,%d,%d\n", i, 1)
	}
	return sb.String()
}

// TestConcurrentSearch hammers /api/search from many goroutines against
// the same and different datasets; run under -race this exercises the
// shared top-k heap, the plan reuse inside a request, and the candidate
// cache's locking.
func TestConcurrentSearch(t *testing.T) {
	s := testServer(t)
	uploadCSV(t, s, "second", risingCSV("apex"))

	queries := []string{"u ; d", "d ; u", "u", "[p=up, m={1,}]"}
	datasets := []string{"demo", "second"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				req := searchRequest{
					parseRequest: parseRequest{Kind: "regex", Query: queries[(g+it)%len(queries)]},
					Dataset:      datasets[g%len(datasets)], Z: "z", X: "x", Y: "y", K: 2,
					Parallelism: 1 + g%3,
				}
				rec := doJSON(t, s, http.MethodPost, "/api/search", req)
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d: status = %d: %s", g, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := s.cache.stats()
	if hits == 0 {
		t.Fatalf("expected cache hits under repeated specs, got hits=%d misses=%d", hits, misses)
	}
}

// TestConcurrentSearchWithUploads interleaves searches with dataset
// re-uploads; every response must be consistent (HTTP 200 with results
// from either the old or new version, never a torn state).
func TestConcurrentSearchWithUploads(t *testing.T) {
	s := testServer(t)
	uploadCSV(t, s, "churn", risingCSV("v0"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				req := searchRequest{
					parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
					Dataset:      "churn", Z: "z", X: "x", Y: "y", K: 1,
				}
				rec := doJSON(t, s, http.MethodPost, "/api/search", req)
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d: status = %d: %s", g, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 8; it++ {
			uploadCSV(t, s, "churn", risingCSV(fmt.Sprintf("v%d", it+1)))
		}
	}()
	wg.Wait()
}

// TestCacheInvalidationOnReupload: after a dataset is replaced, searches
// must reflect the new data — cached candidates from the old version must
// not be served.
func TestCacheInvalidationOnReupload(t *testing.T) {
	s := testServer(t)
	uploadCSV(t, s, "live", risingCSV("first"))

	resp := searchDemo(t, s, "u ; d", "live")
	if resp.Results[0].Z != "first" {
		t.Fatalf("top = %q, want first", resp.Results[0].Z)
	}
	// Warm the cache and confirm a hit.
	_, missesBefore := s.cache.stats()
	searchDemo(t, s, "d ; u", "live")
	hits, misses := s.cache.stats()
	if hits == 0 || misses != missesBefore {
		t.Fatalf("second query over the same spec should hit the cache (hits=%d, misses=%d)", hits, misses)
	}

	uploadCSV(t, s, "live", risingCSV("second"))
	resp = searchDemo(t, s, "u ; d", "live")
	if resp.Results[0].Z != "second" {
		t.Fatalf("after re-upload top = %q, want second (stale cache?)", resp.Results[0].Z)
	}
}

// TestColdMissCoalescing: concurrent identical queries against a cold
// cache must run EXTRACT + GROUP once (singleflight), not once per caller.
func TestColdMissCoalescing(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := searchRequest{
				parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
				Dataset:      "demo", Z: "z", X: "x", Y: "y", K: 1,
			}
			rec := doJSON(t, s, http.MethodPost, "/api/search", req)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d: %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	hits, misses := s.cache.stats()
	if misses != 1 {
		t.Fatalf("cold burst must build once, got misses=%d (hits=%d)", misses, hits)
	}
	if hits != 7 {
		t.Fatalf("7 callers should reuse the build, got hits=%d", hits)
	}
}

// TestCacheDistinctSpecs: changing any visual parameter must miss the
// cache rather than serve candidates grouped under different parameters.
func TestCacheDistinctSpecs(t *testing.T) {
	s := testServer(t)
	searchDemo(t, s, "u ; d", "demo")
	hits0, _ := s.cache.stats()

	// Same spec, different query: hit.
	searchDemo(t, s, "d ; u", "demo")
	hits1, _ := s.cache.stats()
	if hits1 != hits0+1 {
		t.Fatalf("same-spec query should hit (hits %d -> %d)", hits0, hits1)
	}

	// Different K only: still a hit (K is not a grouping parameter).
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y", K: 1,
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	hits2, _ := s.cache.stats()
	if hits2 != hits1+1 {
		t.Fatalf("K change should still hit (hits %d -> %d)", hits1, hits2)
	}

	// Different filter: miss.
	req.Filters = []filterSpec{{Col: "y", Op: "<=", Num: 100}}
	rec = doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	hits3, _ := s.cache.stats()
	if hits3 != hits2 {
		t.Fatalf("filtered query must miss the cache (hits %d -> %d)", hits2, hits3)
	}
}

// TestFetchPanicSafety: a panicking build must release the flight so the
// key is not wedged for every later request (waiters see an error, the
// next caller rebuilds).
func TestFetchPanicSafety(t *testing.T) {
	c := newLRU[cachedCandidates](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic must propagate to the leader")
			}
		}()
		c.fetch(context.Background(), "k", "0", nil, func() (cachedCandidates, error) { panic("boom") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cands, hit, err := c.fetch(context.Background(), "k", "0", nil, func() (cachedCandidates, error) {
			return cachedCandidates{vizs: []*executor.Viz{}}, nil
		})
		if err != nil || hit || cands.vizs == nil {
			t.Errorf("rebuild after panic: cands=%v hit=%v err=%v", cands, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after build panic")
	}
}
