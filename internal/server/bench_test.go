package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"shapesearch/internal/gen"
)

// benchServer hosts one sizeable dataset so that EXTRACT + GROUP dominate
// per-request cost, which is exactly what the candidate cache elides.
func benchServer(b *testing.B, cached bool) *Server {
	b.Helper()
	s := New()
	if !cached {
		s.DisableCache()
	}
	s.Register("stocks", gen.Stocks(120, 250, 1))
	return s
}

// serveSearch issues one /api/search request through the full HTTP stack.
func serveSearch(b *testing.B, s *Server, query string) {
	b.Helper()
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: query},
		Dataset:      "stocks", Z: "symbol", X: "day", Y: "price", K: 5,
		Algorithm: "euclidean",
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		b.Fatal(err)
	}
	hreq := httptest.NewRequest(http.MethodPost, "/api/search", &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, hreq)
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
}

// benchQueries vary the shape query while keeping the visual parameters
// fixed — the repeated-query serving pattern the cache is built for.
var benchQueries = []string{"u ; d", "d ; u", "u ; d ; u"}

// BenchmarkServeSearch compares repeated-query serving with the candidate
// cache on (EXTRACT + GROUP amortized across requests) and off (re-run per
// request). The cached path should be severalfold faster.
func BenchmarkServeSearch(b *testing.B) {
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"CacheHit", true}, {"Uncached", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchServer(b, mode.cached)
			// Warm: the first request per spec is always a miss.
			serveSearch(b, s, benchQueries[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveSearch(b, s, benchQueries[i%len(benchQueries)])
			}
		})
	}
}

// BenchmarkServeSearchColdCache measures the miss path including cache
// bookkeeping: every request arrives at a fresh dataset version.
func BenchmarkServeSearchColdCache(b *testing.B) {
	s := benchServer(b, true)
	tbl := gen.Stocks(120, 250, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Register("stocks", tbl) // bump version: guaranteed miss
		b.StartTimer()
		serveSearch(b, s, benchQueries[i%len(benchQueries)])
	}
}

// BenchmarkServeSearchDrill measures the candidate-cache miss path of a
// drill-down loop: every request carries a price floor no recent request
// used, so it extracts, groups (through the chart pool, which hands back
// the charts earlier sets already built) and, for sets of at least
// indexMinVizs charts, builds a shape index.
func BenchmarkServeSearchDrill(b *testing.B) {
	s := New()
	s.Register("stocks", gen.Stocks(300, 60, 1))
	floors := make([]float64, 997)
	for i := range floors {
		floors[i] = 10 + float64(i)*0.2
	}
	for i := 0; i < defaultCacheCapacity; i++ {
		serveDrill(b, s, floors[len(floors)-1-i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveDrill(b, s, floors[i%len(floors)])
	}
}

// serveDrill issues one pruned drill-down search through the full HTTP
// stack.
func serveDrill(b *testing.B, s *Server, floor float64) {
	b.Helper()
	rec := doJSON(b, s, http.MethodPost, "/api/search", drillRequest("u ; d ; u", floor, true))
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
}
