package server

import (
	"errors"
	"fmt"
	"net/http"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/server/faultinject"
)

// ErrNoDataset is returned by AppendRows for an unregistered dataset name.
var ErrNoDataset = errors.New("server: no such dataset")

// AppendRows appends delta's rows to a registered dataset and repairs every
// derived structure incrementally — O(delta), never O(corpus):
//
//  1. The columnar dataset index absorbs the rows (dictionaries grow, each
//     memoized sort permutation sorts only the appended tail and merges).
//  2. The dataset's delta version is bumped, which fences in-flight
//     candidate builds: a build admitted before the append can no longer
//     store its (possibly pre-append) result.
//  3. Cached candidate sets are patched in place: only the z groups the
//     delta touches are re-extracted and regrouped; untouched vizs — and
//     their memoized scoring state — are reused as-is. Entries whose plans
//     pin push-down windows (collection-dependent grouping) are dropped
//     instead.
//  4. Patched shape indexes absorb the changed ids leaf-by-leaf; once an
//     index's staleness crosses the rebuild threshold, a background full
//     rebuild restores clustering quality without blocking the append.
//
// After AppendRows returns, searches are byte-identical to those against a
// fresh Register of the concatenated table. Appends are serialized with
// each other but never block searches.
func (s *Server) AppendRows(name string, delta *dataset.Table) (appended, total int, err error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.mu.RLock()
	ix, ok := s.indexes[name]
	version := s.versions[name]
	s.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoDataset, name)
	}
	if delta == nil || delta.NumRows() == 0 {
		return 0, ix.NumRows(), nil
	}
	if err := ix.Append(delta); err != nil {
		return 0, ix.NumRows(), err
	}
	s.mu.Lock()
	s.deltaVersions[name]++
	s.mu.Unlock()
	faultinject.Fire("server.append.prepatch")
	s.patchEntries(name, version, ix, delta)
	return delta.NumRows(), ix.NumRows(), nil
}

// patchEntries repairs the cached candidate sets built from this dataset
// registration. It runs under appendMu (patchers never interleave) but off
// the cache lock; each entry is written back optimistically, so a search
// that stored a fresh post-append build concurrently simply wins.
func (s *Server) patchEntries(name string, version uint64, ix *dataset.Index, delta *dataset.Table) {
	for _, snap := range s.cache.snapshot(cacheKeyPrefix(name, version)) {
		// Optimistic-concurrency loop: if the write-back loses the entry
		// generation race (a background index install or a concurrent fresh
		// store landed first), re-read and re-apply. The patch recomputes
		// touched groups from the live dataset index, so applying it to an
		// already-fresh payload is idempotent — the loop converges as soon
		// as no other writer interleaves.
		for attempt := snap; ; {
			ok, retry := s.patchOne(attempt, ix, delta)
			if ok || !retry {
				break
			}
			next, live := s.cache.snapshotOne(attempt.key)
			if !live {
				break
			}
			attempt = next
		}
	}
}

// patchOne applies one append delta to one cached entry. The touched z
// groups are re-extracted through the incremental ExtractGroups path
// (bit-identical to the corresponding slices of a full Extract) and
// regrouped one series at a time — sound exactly because the entry's plan
// is PinFree, making GROUP per-series local. The patched viz slice keeps
// the full extraction's z-ascending order, so ranking tie-breaks (score
// then input index) match a fresh build byte for byte.
//
// It reports whether the entry ended up consistent with the appended data
// (patched, removed, or untouched by the delta) and, when not, whether
// re-reading the entry and retrying can help (the generation-guarded
// write-back lost to a concurrent writer).
func (s *Server) patchOne(snap lruEntry[cachedCandidates], ix *dataset.Index, delta *dataset.Table) (ok, retry bool) {
	if !snap.val.patchable || snap.val.plan == nil {
		s.cache.remove(snap.key)
		return true, false
	}
	espec, plan := snap.val.espec, snap.val.plan
	touched, err := delta.DistinctValues(espec.Z)
	if err != nil {
		s.cache.remove(snap.key)
		return true, false
	}
	series, err := ix.ExtractGroups(espec, touched)
	if err != nil {
		// The appended rows made this spec unextractable (e.g. a duplicate
		// x under AggNone); drop the entry so the next search re-extracts
		// and surfaces the error.
		s.cache.remove(snap.key)
		return true, false
	}
	// A touched z missing from fresh has no groupable series any more. The
	// pool hands back the chart another entry already regrouped from the
	// same series, and the old chart itself when the delta left it as it
	// was.
	fresh := make(map[string]*executor.Viz, len(series))
	for _, v := range plan.GroupSeriesPooled(&s.vizPool, series) {
		fresh[v.Series.Z] = v
	}

	old := snap.val.vizs
	pos := snap.val.zpos
	if pos == nil {
		pos = buildZPos(old)
	}
	lastZ := ""
	for i := len(old) - 1; i >= 0; i-- {
		if old[i] != nil {
			lastZ = old[i].Series.Z
			break
		}
	}
	var (
		changed   []int
		inserts   []*executor.Viz
		needMerge bool
	)
	newVizs := append([]*executor.Viz(nil), old...)
	for _, z := range touched {
		nv := fresh[z]
		p, existed := pos[z]
		switch {
		case existed && nv != nil:
			if nv == old[p] {
				continue // the delta's rows for z are invisible to this spec
			}
			newVizs[p] = nv
			changed = append(changed, p)
		case existed:
			// The group vanished or became ungroupable. Pure appends cannot
			// do that, but rebuild the slice conservatively if it happens.
			needMerge = true
		case nv != nil:
			// A brand-new group. New z values sorting after every existing
			// one extend the slice in place (shape-index ids are positions,
			// so they must not shift); a mid-slice insertion forces a merge
			// and an index rebuild.
			inserts = append(inserts, nv)
			if z <= lastZ {
				needMerge = true
			}
		}
	}
	if len(changed) == 0 && len(inserts) == 0 && !needMerge {
		return true, false // the delta's rows are invisible to this entry's spec
	}

	cc := snap.val
	if needMerge {
		touchedSet := make(map[string]bool, len(touched))
		for _, z := range touched {
			touchedSet[z] = true
		}
		freshList := make([]*executor.Viz, 0, len(fresh))
		for _, z := range touched {
			if v := fresh[z]; v != nil {
				freshList = append(freshList, v)
			}
		}
		merged := make([]*executor.Viz, 0, len(old)+len(freshList))
		fi := 0
		for _, v := range old {
			if v == nil || touchedSet[v.Series.Z] {
				continue
			}
			for fi < len(freshList) && freshList[fi].Series.Z < v.Series.Z {
				merged = append(merged, freshList[fi])
				fi++
			}
			merged = append(merged, v)
		}
		merged = append(merged, freshList[fi:]...)
		cc.vizs, cc.index = merged, nil
		cc.zpos = buildZPos(merged)
	} else {
		for _, nv := range inserts {
			// Mutating the shared zpos map is safe: patchers serialize on
			// appendMu and nothing else reads it.
			pos[nv.Series.Z] = len(newVizs)
			changed = append(changed, len(newVizs))
			newVizs = append(newVizs, nv)
		}
		cc.vizs = newVizs
		cc.zpos = pos
		if snap.val.index != nil {
			cc.index = snap.val.index.Update(newVizs, changed)
		}
	}
	landed, gen := s.cache.replace(snap.key, snap.gen, cc)
	if !landed {
		// A background index install or a concurrent fresh store moved the
		// generation under us; the caller re-reads and retries.
		return false, true
	}
	if len(cc.vizs) >= indexMinVizs && (cc.index == nil || cc.index.Staleness() >= s.rebuildThreshold) {
		s.scheduleRebuild(snap.key, gen, cc)
	}
	return true, false
}

// scheduleRebuild rebuilds a cached entry's shape index from scratch in the
// background — restoring clustering quality after repeated patches decay it
// — and installs it only if the entry has not been rewritten meanwhile (the
// generation check; a newer write already reflects newer data).
func (s *Server) scheduleRebuild(key string, gen uint64, cc cachedCandidates) {
	s.rebuildWG.Add(1)
	go func() {
		defer s.rebuildWG.Done()
		faultinject.Fire("server.rebuild.start")
		// Rebuilds yield to interactive traffic: above the load watermark
		// (queued searches, or no free admission slot) the rebuild parks
		// until a calm window — bounded by rebuildPauseMax so sustained
		// overload delays the rebuild rather than starving it. A patched
		// index stays sound at any staleness, so waiting costs pruning
		// quality only.
		s.adm.awaitCalm(s.rebuildPauseMax)
		faultinject.Fire("server.rebuild.build")
		vizs := make([]*executor.Viz, 0, len(cc.vizs))
		for _, v := range cc.vizs {
			if v != nil {
				vizs = append(vizs, v)
			}
		}
		nc := cc
		nc.vizs = vizs
		nc.index = executor.BuildVizIndex(vizs, 0)
		nc.zpos = buildZPos(vizs)
		s.cache.replace(key, gen, nc)
	}()
}

// appendResponse is the /api/append reply.
type appendResponse struct {
	Dataset  string `json:"dataset"`
	Appended int    `json:"appended"`
	Rows     int    `json:"rows"`
}

// handleAppend serves POST /api/append?dataset=name: the CSV body (same
// columns as the registered dataset, any order) is appended through
// AppendRows, maintaining the dataset index, cached candidate sets and
// shape indexes incrementally.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST with a CSV body")
		return
	}
	name := r.URL.Query().Get("dataset")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing dataset query parameter")
		return
	}
	s.mu.RLock()
	ix, ok := s.indexes[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no dataset %q", name))
		return
	}
	delta, err := dataset.FromCSVSchema(http.MaxBytesReader(w, r.Body, maxAppendBody), ix.Table())
	if err != nil {
		writeBodyErr(w, "", err)
		return
	}
	// Appends yield to interactive searches: under load the append waits
	// for a calm window, bounded by appendYieldMax so sustained overload
	// slows ingestion without starving it. Correctness is unaffected — the
	// append is byte-identical whenever it runs.
	s.adm.awaitCalm(s.appendYieldMax)
	appended, total, err := s.AppendRows(name, delta)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrNoDataset) {
			code = http.StatusNotFound
		}
		writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{Dataset: name, Appended: appended, Rows: total})
}
