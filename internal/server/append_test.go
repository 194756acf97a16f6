package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
)

// appendQueries cover crisp, multi-segment and fuzzy queries (distinct
// engine routing under AlgAuto) — the oracle set for append-vs-register
// byte identity.
var appendQueries = []string{"u", "u ; d", "[p=up, m={1,}]"}

// searchCanonical runs one search against the "ticks" dataset and returns
// the response body with the Debug block zeroed — plan-cache counters
// legitimately differ between a long-lived appended server and a freshly
// registered one, everything else must not.
func searchCanonical(t *testing.T, s *Server, query string, k int, pruning bool) string {
	t.Helper()
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: query},
		Dataset:      "ticks", Z: "z", X: "x", Y: "y", K: k,
		Pruning: pruning,
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search %q: status = %d: %s", query, rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Debug = nil
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func cacheMisses(s *Server) uint64 {
	_, m := s.cache.stats()
	return m
}

// assertAppendedMatchesFresh registers the concatenation of applied on a
// brand-new server and checks that every oracle query answers byte-
// identically on both — the append path's correctness bar.
func assertAppendedMatchesFresh(t *testing.T, s *Server, applied []*dataset.Table, label string) {
	t.Helper()
	full, err := dataset.Concat(applied...)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	fresh.Register("ticks", full)
	for _, q := range appendQueries {
		for _, pruning := range []bool{true, false} {
			got := searchCanonical(t, s, q, 10, pruning)
			want := searchCanonical(t, fresh, q, 10, pruning)
			if got != want {
				t.Fatalf("%s: query %q (pruning=%v) diverges from a fresh Register\ngot:  %.300s\nwant: %.300s",
					label, q, pruning, got, want)
			}
		}
	}
}

// TestAppendMatchesRegister drives random append schedules — in-order and
// out-of-order x, indexed (>= indexMinVizs series) and flat corpora,
// default and aggressive rebuild thresholds — and checks after every batch
// that searches on the appended server are byte-identical to a fresh
// Register of the concatenated table, served from the patched cache entry
// (no new cache miss).
func TestAppendMatchesRegister(t *testing.T) {
	cases := []struct {
		name               string
		numSeries, basePts int
		nBatches, batchPts int
		inOrder            bool
		rebuildThreshold   int
	}{
		{"indexed-inorder", 300, 8, 3, 150, true, 0},
		{"indexed-outoforder-rebuild1", 300, 8, 3, 150, false, 1},
		{"flat-inorder", 40, 10, 4, 25, true, 0},
		{"flat-outoforder", 40, 10, 4, 25, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if tc.rebuildThreshold > 0 {
				opts = append(opts, WithIndexRebuildThreshold(tc.rebuildThreshold))
			}
			s := New(opts...)
			base, batches := gen.StreamTicks(tc.numSeries, tc.basePts, tc.nBatches, tc.batchPts, 42, tc.inOrder)
			// The server owns base after Register (appends grow it in
			// place); the ground truth needs a pristine copy, and the
			// generator is deterministic, so generate it again.
			pristine, _ := gen.StreamTicks(tc.numSeries, tc.basePts, tc.nBatches, tc.batchPts, 42, tc.inOrder)
			s.Register("ticks", base)
			// Warm the cache so the appends have entries to patch.
			for _, q := range appendQueries {
				searchCanonical(t, s, q, 10, true)
			}
			applied := []*dataset.Table{pristine}
			for bi, delta := range batches {
				if _, _, err := s.AppendRows("ticks", delta); err != nil {
					t.Fatal(err)
				}
				s.rebuildWG.Wait()
				applied = append(applied, delta)
				missesBefore := cacheMisses(s)
				assertAppendedMatchesFresh(t, s, applied, tc.name+": batch "+string(rune('0'+bi)))
				if m := cacheMisses(s); m != missesBefore {
					t.Fatalf("batch %d: post-append search missed the cache (%d -> %d); the entry was dropped instead of patched", bi, missesBefore, m)
				}
			}
		})
	}
}

// seriesTable builds numSeries fresh series named prefix0, prefix1, … with
// pts points each (deterministic y), matching StreamTicks's z/x/y schema.
func seriesTable(t *testing.T, prefix string, numSeries, pts int) *dataset.Table {
	t.Helper()
	var zs []string
	var xs, ys []float64
	for si := 0; si < numSeries; si++ {
		name := prefix + string(rune('0'+si))
		for k := 0; k < pts; k++ {
			zs = append(zs, name)
			xs = append(xs, float64(k))
			ys = append(ys, math.Sin(float64(k)*0.7+float64(si)))
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
	return tbl
}

// TestAppendNewGroups covers deltas that introduce brand-new z groups: ones
// sorting after every existing series extend the cached slice (and its
// shape index) in place, ones sorting before force the merge + background
// rebuild path. Both must stay byte-identical to a fresh Register and keep
// serving from the patched entry.
func TestAppendNewGroups(t *testing.T) {
	s := New()
	base, _ := gen.StreamTicks(300, 8, 0, 0, 7, true)
	pristine, _ := gen.StreamTicks(300, 8, 0, 0, 7, true)
	s.Register("ticks", base)
	for _, q := range appendQueries {
		searchCanonical(t, s, q, 10, true)
	}
	applied := []*dataset.Table{pristine}

	// StreamTicks series are named tick…, so "zz-…" sorts after all of them
	// (end-append) and "aaa-…" before all of them (mid-insert).
	endDelta := seriesTable(t, "zz-end-", 3, 8)
	if _, _, err := s.AppendRows("ticks", endDelta); err != nil {
		t.Fatal(err)
	}
	s.rebuildWG.Wait()
	applied = append(applied, endDelta)
	misses := cacheMisses(s)
	assertAppendedMatchesFresh(t, s, applied, "end-append of new groups")
	if m := cacheMisses(s); m != misses {
		t.Fatalf("end-append dropped the cache entry (misses %d -> %d)", misses, m)
	}

	midDelta := seriesTable(t, "aaa-mid-", 2, 8)
	if _, _, err := s.AppendRows("ticks", midDelta); err != nil {
		t.Fatal(err)
	}
	s.rebuildWG.Wait()
	applied = append(applied, midDelta)
	misses = cacheMisses(s)
	assertAppendedMatchesFresh(t, s, applied, "mid-insert of new groups")
	if m := cacheMisses(s); m != misses {
		t.Fatalf("mid-insert dropped the cache entry (misses %d -> %d)", misses, m)
	}
}

// entryIndexStaleness digs the lone cached entry's shape-index staleness
// out of the candidate cache (version 1 = the first Register).
func entryIndexStaleness(t *testing.T, s *Server) int {
	t.Helper()
	snaps := s.cache.snapshot(cacheKeyPrefix("ticks", 1))
	if len(snaps) == 0 {
		t.Fatal("no cached entry to inspect")
	}
	if snaps[0].val.index == nil {
		t.Fatal("cached entry has no shape index")
	}
	return snaps[0].val.index.Staleness()
}

// TestAppendRebuildPolicy pins the staleness policy: under the default
// threshold a patched index survives with nonzero staleness; with the
// threshold at 1 every append schedules a background rebuild that resets
// staleness to zero.
func TestAppendRebuildPolicy(t *testing.T) {
	base, batches := gen.StreamTicks(300, 8, 1, 80, 11, true)
	base2, _ := gen.StreamTicks(300, 8, 1, 80, 11, true)

	s := New()
	s.Register("ticks", base)
	searchCanonical(t, s, "u", 5, true)
	if _, _, err := s.AppendRows("ticks", batches[0]); err != nil {
		t.Fatal(err)
	}
	s.rebuildWG.Wait()
	if st := entryIndexStaleness(t, s); st == 0 {
		t.Fatal("default threshold: expected the patched index to carry staleness, got 0 (rebuilt?)")
	}

	s2 := New(WithIndexRebuildThreshold(1))
	s2.Register("ticks", base2)
	searchCanonical(t, s2, "u", 5, true)
	if _, _, err := s2.AppendRows("ticks", batches[0]); err != nil {
		t.Fatal(err)
	}
	s2.rebuildWG.Wait()
	if st := entryIndexStaleness(t, s2); st != 0 {
		t.Fatalf("threshold 1: expected a background rebuild to reset staleness, got %d", st)
	}
}

// TestAppendDropsPinnedEntries: plans with pinned push-down windows group
// against the whole collection, so their cached entries cannot be patched
// per-group — an append must drop them, and the next search must rebuild
// and still match a fresh Register.
func TestAppendDropsPinnedEntries(t *testing.T) {
	pinned := "[x.s=1, x.e=5, p=up]"
	run := func(t *testing.T, s *Server) string {
		return searchCanonical(t, s, pinned, 5, true)
	}
	s := New()
	base, batches := gen.StreamTicks(40, 10, 1, 30, 23, true)
	pristine, _ := gen.StreamTicks(40, 10, 1, 30, 23, true)
	s.Register("ticks", base)
	run(t, s)
	missesBefore := cacheMisses(s)
	if _, _, err := s.AppendRows("ticks", batches[0]); err != nil {
		t.Fatal(err)
	}
	s.rebuildWG.Wait()
	got := run(t, s)
	if m := cacheMisses(s); m != missesBefore+1 {
		t.Fatalf("pinned entry should be dropped and rebuilt once (misses %d -> %d)", missesBefore, m)
	}
	full, err := dataset.Concat(pristine, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	fresh.Register("ticks", full)
	if want := run(t, fresh); got != want {
		t.Fatalf("pinned query after append diverges from fresh Register\ngot:  %.300s\nwant: %.300s", got, want)
	}
}

// TestAppendRowsErrors covers the append API's failure modes: unknown
// dataset, schema mismatch (which must leave the dataset untouched), and
// the empty-delta no-op.
func TestAppendRowsErrors(t *testing.T) {
	s := testServer(t)
	if _, _, err := s.AppendRows("nope", nil); err == nil {
		t.Fatal("append to unknown dataset succeeded")
	}
	bad, err := dataset.New(dataset.Column{Name: "wrong", Type: dataset.Float, Floats: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendRows("demo", bad); err == nil {
		t.Fatal("schema-mismatched append succeeded")
	}
	appended, total, err := s.AppendRows("demo", nil)
	if err != nil || appended != 0 || total != 18 {
		t.Fatalf("empty append: appended=%d total=%d err=%v, want 0, 18, nil", appended, total, err)
	}
}

// TestAppendEndpoint exercises POST /api/append end to end: CSV parsing
// against the registered schema, row accounting, and the error statuses.
func TestAppendEndpoint(t *testing.T) {
	s := testServer(t)
	body := "z,x,y\nspike,0,0\nspike,1,5\nspike,2,0\nrise,9,9\n"
	req := httptest.NewRequest(http.MethodPost, "/api/append?dataset=demo", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp appendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Appended != 4 || resp.Rows != 22 {
		t.Fatalf("appended=%d rows=%d, want 4, 22", resp.Appended, resp.Rows)
	}

	for _, tc := range []struct {
		path, body string
		wantCode   int
	}{
		{"/api/append", "z,x,y\n", http.StatusBadRequest},
		{"/api/append?dataset=nope", "z,x,y\n", http.StatusNotFound},
		{"/api/append?dataset=demo", "a,b\n1,2\n", http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.wantCode {
			t.Fatalf("%s: status = %d, want %d: %s", tc.path, rec.Code, tc.wantCode, rec.Body.String())
		}
	}
}

// TestFetchValidateAtStore is the regression test for the build-vs-append
// race: a candidate build that was in flight when the data changed (the
// validate closure turns false) must NOT be stored — before this check a
// pre-append extraction could land after the patcher ran and serve stale
// candidates forever.
func TestFetchValidateAtStore(t *testing.T) {
	c := newLRU[cachedCandidates](4)
	var valid atomic.Bool
	valid.Store(true)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.fetch(context.Background(), "k", "0", valid.Load, func() (cachedCandidates, error) {
			close(started)
			<-release
			return cachedCandidates{}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	valid.Store(false) // an append invalidated the build mid-flight
	close(release)
	<-done
	c.mu.Lock()
	_, stored := c.entries["k"]
	c.mu.Unlock()
	if stored {
		t.Fatal("a build invalidated mid-flight was stored anyway")
	}
}

// TestFetchFlightScopedByDeltaVersion: a request admitted after an append
// (higher delta version) must not join a flight led by a pre-append
// request — the leader's extraction may predate the appended rows.
func TestFetchFlightScopedByDeltaVersion(t *testing.T) {
	c := newLRU[cachedCandidates](4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.fetch(context.Background(), "k", "0",
			func() bool { return false }, // the append already invalidated this leader
			func() (cachedCandidates, error) {
				close(started)
				<-release
				return cachedCandidates{}, nil
			})
	}()
	<-started
	ran := false
	cands, hit, err := c.fetch(context.Background(), "k", "1", nil, func() (cachedCandidates, error) {
		ran = true
		return cachedCandidates{patchable: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran || hit {
		t.Fatalf("post-append request joined the pre-append flight (ran=%v hit=%v)", ran, hit)
	}
	if !cands.patchable {
		t.Fatal("post-append request got the wrong payload")
	}
	close(release)
	<-done
	// The stale leader must not have clobbered the post-append store.
	got, hit, err := c.fetch(context.Background(), "k", "1", nil, func() (cachedCandidates, error) {
		t.Fatal("unexpected rebuild: entry should be cached")
		return cachedCandidates{}, nil
	})
	if err != nil || !hit || !got.patchable {
		t.Fatalf("stale leader overwrote the fresh entry (hit=%v patchable=%v err=%v)", hit, got.patchable, err)
	}
}
