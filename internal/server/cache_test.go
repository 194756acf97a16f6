package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/gen"
	"shapesearch/internal/server/faultinject"
)

func fill(t *testing.T, c *lru[cachedCandidates], key string) {
	t.Helper()
	_, _, err := c.fetch(context.Background(), key, "", nil, func() (cachedCandidates, error) {
		return cachedCandidates{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCandidateCacheLRU asserts the eviction policy at several capacities
// (the capacity is a server.Option now, so the policy must hold for any
// configured bound): a hot entry that keeps getting hits survives a burst
// of one-off keys that overflows capacity, while the coldest entry is
// evicted.
func TestCandidateCacheLRU(t *testing.T) {
	for _, capacity := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			c := newLRU[cachedCandidates](capacity)
			fill(t, c, "hot")
			fill(t, c, "cold")
			fill(t, c, "warm")
			// Touch hot and warm so cold is the LRU entry.
			fill(t, c, "hot")
			fill(t, c, "warm")
			// A burst of one-off keys overflowing any capacity under test,
			// with the hot key re-touched between them.
			for i := 0; i < capacity+5; i++ {
				fill(t, c, fmt.Sprintf("one-off-%d", i))
				fill(t, c, "hot")
			}
			hitsBefore, _ := c.stats()
			fill(t, c, "hot")
			hitsAfter, _ := c.stats()
			if hitsAfter != hitsBefore+1 {
				t.Fatalf("hot key was evicted despite constant hits (hits %d -> %d)", hitsBefore, hitsAfter)
			}
			_, missesBefore := c.stats()
			fill(t, c, "cold")
			_, missesAfter := c.stats()
			if missesAfter != missesBefore+1 {
				t.Fatal("cold key should have been evicted by the one-off burst")
			}
			if len(c.entries) > capacity || c.order.Len() != len(c.entries) {
				t.Fatalf("bookkeeping drift: %d entries (cap %d), %d list nodes",
					len(c.entries), capacity, c.order.Len())
			}
		})
	}
}

// TestCandidateCacheInvalidateDataset asserts per-dataset invalidation
// removes entries from both the map and the recency list.
func TestCandidateCacheInvalidateDataset(t *testing.T) {
	c := newLRU[cachedCandidates](8)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("a-%d", i)
		if _, _, err := c.fetch(context.Background(), key, "", nil, func() (cachedCandidates, error) { return cachedCandidates{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.fetch(context.Background(), "b-0", "", nil, func() (cachedCandidates, error) { return cachedCandidates{}, nil }); err != nil {
		t.Fatal(err)
	}
	c.removePrefix("a-")
	if len(c.entries) != 1 || c.order.Len() != 1 {
		t.Fatalf("after invalidate: %d entries, %d list nodes, want 1", len(c.entries), c.order.Len())
	}
	if _, ok := c.entries["b-0"]; !ok {
		t.Fatal("other dataset's entry must survive")
	}
}

// TestCacheCapacityOptions asserts the server.Options actually resize the
// caches and that the zero/negative values keep the defaults.
func TestCacheCapacityOptions(t *testing.T) {
	s := New(WithCandidateCacheCapacity(5), WithPlanCacheCapacity(7))
	if got := s.cache.capacity; got != 5 {
		t.Fatalf("candidate cache capacity = %d, want 5", got)
	}
	if got := s.plans.capacity; got != 7 {
		t.Fatalf("plan cache capacity = %d, want 7", got)
	}
	d := New(WithCandidateCacheCapacity(0), WithPlanCacheCapacity(-1))
	if got := d.cache.capacity; got != defaultCacheCapacity {
		t.Fatalf("candidate cache capacity = %d, want default %d", got, defaultCacheCapacity)
	}
	if got := d.plans.capacity; got != defaultPlanCacheCapacity {
		t.Fatalf("plan cache capacity = %d, want default %d", got, defaultPlanCacheCapacity)
	}
}

// phasedTable builds series s0..s3 over x in [x0, x0+pts) with y a sine
// shifted by phase, so two datasets sharing z values still rank apart.
func phasedTable(t *testing.T, phase float64, x0, pts int) *dataset.Table {
	t.Helper()
	var zs []string
	var xs, ys []float64
	for si := 0; si < 4; si++ {
		for x := x0; x < x0+pts; x++ {
			zs = append(zs, fmt.Sprintf("s%d", si))
			xs = append(xs, float64(x))
			ys = append(ys, math.Sin(float64(x)*0.7+float64(si)+phase))
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

// TestCacheScopedByDataset: re-registering or appending to one dataset
// never touches another dataset's cache entries, for names and versions
// whose raw bytes run into each other — unquoted, "a" at version 1 keys as
// "a\x001\x00…", a prefix of every key of "a\x001". The bystander's next
// search must hit the cache and answer as before.
func TestCacheScopedByDataset(t *testing.T) {
	const other = "a\x001"
	phase := map[string]float64{"a": 0, other: 2}
	ops := []struct {
		name string
		run  func(s *Server, target string)
	}{
		{"register", func(s *Server, target string) { s.Register(target, phasedTable(t, phase[target], 0, 10)) }},
		{"append", func(s *Server, target string) {
			if _, _, err := s.AppendRows(target, phasedTable(t, phase[target], 10, 3)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, versions := range [][2]int{{1, 11}, {11, 1}} {
		for _, op := range ops {
			for _, target := range []string{"a", other} {
				s := New()
				for ds, n := range map[string]int{"a": versions[0], other: versions[1]} {
					for i := 0; i < n; i++ {
						s.Register(ds, phasedTable(t, phase[ds], 0, 10))
					}
				}
				before := map[string]string{}
				for _, ds := range []string{"a", other} {
					b, _ := json.Marshal(searchDemo(t, s, "u ; d", ds).Results)
					before[ds] = string(b)
				}
				op.run(s, target)
				bystander := other
				if target == other {
					bystander = "a"
				}
				misses := cacheMisses(s)
				got, _ := json.Marshal(searchDemo(t, s, "u ; d", bystander).Results)
				if m := cacheMisses(s); m != misses {
					t.Errorf("versions %v, %s %q: dropped %q's entry", versions, op.name, target, bystander)
				}
				if string(got) != before[bystander] {
					t.Errorf("versions %v, %s %q: changed %q's results\ngot:  %s\nwant: %s", versions, op.name, target, bystander, got, before[bystander])
				}
			}
		}
	}
}

// TestDisabledCache: with the candidate cache off (shapeserver -nocache), a
// request script — one query, a batch, a pruned query and a query over a
// corpus large enough for a shape index — answers byte-identically to a
// cached server, extracts afresh on every search and stores nothing.
func TestDisabledCache(t *testing.T) {
	demo := searchRequest{Dataset: "demo", Z: "z", X: "x", Y: "y", K: 2}
	single, batch, pruned := demo, demo, demo
	single.parseRequest = parseRequest{Kind: "regex", Query: "u ; d"}
	batch.Queries = []parseRequest{{Kind: "regex", Query: "u ; d"}, {Kind: "regex", Query: "d ; u"}, {Kind: "nl", Query: "rising"}}
	pruned.parseRequest = parseRequest{Kind: "regex", Query: "u ; d ; u"}
	pruned.Pruning = true
	corpus := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
		Dataset:      "corpus", Z: "symbol", X: "day", Y: "price", K: 5, Pruning: true,
	}
	script := []searchRequest{single, batch, pruned, corpus}

	run := func(cached bool) (bodies []string, extracts int64) {
		s := testServer(t)
		if !cached {
			s.DisableCache()
		}
		s.Register("corpus", gen.Stocks(2*indexMinVizs, 12, 1))
		var n atomic.Int64
		defer faultinject.Set("server.extract", func() { n.Add(1) })()
		for pass := 0; pass < 2; pass++ {
			for i, req := range script {
				rec := doJSON(t, s, http.MethodPost, "/api/search", req)
				if rec.Code != http.StatusOK {
					t.Fatalf("cached=%v request %d: status = %d: %s", cached, i, rec.Code, rec.Body.String())
				}
				bodies = append(bodies, rec.Body.String())
			}
		}
		stored := s.cache.snapshot("")
		if cached && len(stored) != 2 {
			t.Fatalf("cached server holds %d entries, want 2 (demo, corpus)", len(stored))
		}
		if !cached && len(stored) != 0 {
			t.Fatalf("disabled cache holds %d entries", len(stored))
		}
		if cached && s.cache.snapshot(cacheKeyPrefix("corpus", 1))[0].val.index == nil {
			t.Fatal("the corpus query did not take the shape-index path")
		}
		return bodies, n.Load()
	}
	want, cachedExtracts := run(true)
	got, extracts := run(false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: uncached reply differs\ngot:  %.300s\nwant: %.300s", i%len(script), got[i], want[i])
		}
	}
	if cachedExtracts != 2 || extracts != int64(len(got)) {
		t.Fatalf("extractions: cached %d (want 2), uncached %d (want one per search, %d)", cachedExtracts, extracts, len(got))
	}
}

// drillRequest is one step of a drill-down loop over the stocks table: a
// price floor narrows the charts, so each distinct floor is its own
// candidate set.
func drillRequest(query string, floor float64, pruning bool) searchRequest {
	return searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: query},
		Dataset:      "stocks", Z: "symbol", X: "day", Y: "price", K: 5,
		Filters: []filterSpec{{Col: "price", Op: ">", Num: floor}},
		Pruning: pruning,
	}
}

// TestDrillSharesCharts: distinct price floors sent through a candidate
// cache far smaller than their number miss on nearly every request. Each
// miss groups through the chart pool, and the replies must match a server
// without a candidate cache byte for byte. Two cached sets that both keep
// every row hold the very same charts.
func TestDrillSharesCharts(t *testing.T) {
	tbl := gen.Stocks(indexMinVizs+40, 30, 1)
	s := New(WithCandidateCacheCapacity(4))
	s.Register("stocks", tbl)
	ref := New()
	ref.DisableCache()
	ref.Register("stocks", gen.Stocks(indexMinVizs+40, 30, 1))
	queries := []string{"u ; d", "d ; u ; d", "[p=up, m={1,}]"}
	for i := 0; i < 60; i++ {
		// Floors come back after their sets were evicted, and the refill
		// meets whatever charts of theirs the live sets still hold.
		floor := 10 + float64(i*37%45)*4
		req := drillRequest(queries[i%len(queries)], floor, i%2 == 0)
		got := doJSON(t, s, http.MethodPost, "/api/search", req)
		want := doJSON(t, ref, http.MethodPost, "/api/search", req)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("request %d: status %d and %d: %s", i, got.Code, want.Code, got.Body.String())
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("request %d (floor %v): reply differs from the uncached server\ngot:  %.300s\nwant: %.300s", i, floor, got.Body.String(), want.Body.String())
		}
	}

	for _, floor := range []float64{-1, -2} {
		if rec := doJSON(t, s, http.MethodPost, "/api/search", drillRequest("u ; d", floor, true)); rec.Code != http.StatusOK {
			t.Fatalf("floor %v: status = %d: %s", floor, rec.Code, rec.Body.String())
		}
	}
	sets := make(map[float64][]*executor.Viz)
	for _, e := range s.cache.snapshot(cacheKeyPrefix("stocks", 1)) {
		if f := e.val.espec.Filters; len(f) == 1 && f[0].Num < 0 {
			sets[f[0].Num] = e.val.vizs
		}
	}
	a, b := sets[-1], sets[-2]
	if len(a) != indexMinVizs+40 || len(b) != len(a) {
		t.Fatalf("unfiltered sets hold %d and %d charts, want %d each", len(a), len(b), indexMinVizs+40)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chart %d (%s): two cached sets with equal content hold two charts", i, a[i].Series.Z)
		}
	}
}
