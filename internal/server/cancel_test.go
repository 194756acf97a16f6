package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shapesearch/internal/dataset"
)

// searchBody is the minimal /api/search request the cancellation tests use.
func searchBody(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{
		"kind": "regex", "query": "u ; d",
		"dataset": "demo", "z": "z", "x": "x", "y": "y",
	})
	if err != nil {
		t.Fatal(err)
	}
	return &buf
}

// registerBig adds a dataset whose exact-DP search takes far longer than
// any timer granularity, so a short per-request deadline deterministically
// expires mid-scoring (the cooperative per-candidate check observes it).
func registerBig(t *testing.T, s *Server) {
	t.Helper()
	const series, points = 48, 240
	rng := rand.New(rand.NewSource(11))
	var zs []string
	var xs, ys []float64
	for i := 0; i < series; i++ {
		z := string(rune('a'+i%26)) + string(rune('a'+i/26))
		y := 0.0
		for j := 0; j < points; j++ {
			y += rng.NormFloat64()
			zs = append(zs, z)
			xs = append(xs, float64(j))
			ys = append(ys, y)
		}
	}
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Register("big", tbl)
}

// TestSearchTimeoutReturns503: a configured per-request deadline that
// expires mid-search returns 503 promptly, not a partial or hung response.
func TestSearchTimeoutReturns503(t *testing.T) {
	s := testServer(t)
	registerBig(t, s)
	s.SetSearchTimeout(2 * time.Millisecond)
	body := func() *bytes.Buffer {
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(map[string]any{
			"kind": "regex", "query": "u ; d ; u ; d",
			"dataset": "big", "z": "z", "x": "x", "y": "y",
			"algorithm": "dp",
		})
		if err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	req := httptest.NewRequest(http.MethodPost, "/api/search", body())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired search status = %d, want %d (body %s)",
			rec.Code, http.StatusServiceUnavailable, rec.Body.String())
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("503 Retry-After = %q, want a positive integer (err %v)",
			rec.Header().Get("Retry-After"), err)
	}

	// Clearing the timeout restores normal service (on the small dataset,
	// to keep the test fast).
	s.SetSearchTimeout(0)
	req = httptest.NewRequest(http.MethodPost, "/api/search", searchBody(t))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("unbounded search status = %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
}

// TestCacheWaiterHonorsContext: a request coalesced onto another request's
// in-flight extraction stops waiting when its own context expires — the
// leader's build continues and still populates the cache.
func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newLRU[cachedCandidates](4)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.fetch(context.Background(), "k", "0", nil, func() (cachedCandidates, error) {
			close(started)
			<-release
			return cachedCandidates{}, nil
		})
		leaderDone <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.fetch(ctx, "k", "0", nil, func() (cachedCandidates, error) {
		t.Error("waiter must join the flight, not rebuild")
		return cachedCandidates{}, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	// The abandoned waiter must not have disturbed the stored entry.
	if _, hit, err := c.fetch(context.Background(), "k", "0", nil, func() (cachedCandidates, error) {
		t.Error("entry should be cached")
		return cachedCandidates{}, nil
	}); err != nil || !hit {
		t.Fatalf("post-flight fetch hit=%v err=%v, want cached hit", hit, err)
	}
}

// TestSearchClientDisconnectDropped: an abandoned request (canceled request
// context, as net/http delivers on client disconnect) cancels the scoring
// pipeline and is logged and dropped without a status — there is nobody
// left to read one, and a synthesized 503 would count an abandoned request
// as a server failure. Server-side deadlines (above) stay 503.
func TestSearchClientDisconnectDropped(t *testing.T) {
	s := testServer(t)
	var mu sync.Mutex
	var logged []string
	s.logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/search", searchBody(t)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	// httptest.NewRecorder starts at 200 and only changes if a status is
	// written; a dropped request writes neither a status nor a body.
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("disconnected search wrote status %d body %q, want nothing written",
			rec.Code, rec.Body.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "client disconnected") {
		t.Fatalf("dropped request log = %q, want one 'client disconnected' line", logged)
	}
	if adm, queued, workers := s.adm.snapshot(); adm != 0 || queued != 0 || workers != 0 {
		t.Fatalf("gauges after drop = (%d,%d,%d), want zeros", adm, queued, workers)
	}
}
