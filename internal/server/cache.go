package server

import (
	"fmt"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
)

// The server's two caches are instances of lru (lru.go): the candidate
// cache, lru[cachedCandidates], memoizes the EXTRACT + GROUP stages per
// dataset version and visual parameters; the plan cache,
// lru[*executor.Plan], memoizes executor.Compile per query fingerprint.
// This file holds what they store and how they are keyed.

// defaultCacheCapacity bounds the number of cached candidate sets. Each
// entry holds the grouped Viz slices for one (dataset version, effective
// extract spec, group config) combination; a handful of visual-parameter
// combinations per dataset is typical, so a small bound suffices.
const defaultCacheCapacity = 64

// defaultPlanCacheCapacity bounds the number of cached compiled plans. A
// plan is a few kilobytes of interned metadata, so the bound is generous;
// it exists to keep adversarial query streams from growing the map without
// limit.
const defaultPlanCacheCapacity = 128

// datasetKeyPrefix is the shared prefix of every candidate-cache key built
// from one dataset; Register drops the dataset's entries by it. The name is
// quoted so that no dataset's prefix is a prefix of another dataset's keys:
// a quoted name ends at its first unescaped quote, while a raw one may hold
// the separator (Register takes any string, and upload paths decode %00).
func datasetKeyPrefix(dataset string) string {
	return fmt.Sprintf("%q\x00", dataset)
}

// cacheKeyPrefix is the shared prefix of every cacheKey for one dataset
// registration; the append patcher patches only these entries, skipping
// those from an older registration that a concurrent Register has already
// made unreachable.
func cacheKeyPrefix(dataset string, version uint64) string {
	return fmt.Sprintf("%s%d\x00", datasetKeyPrefix(dataset), version)
}

// cacheKey scopes a plan's candidate key by dataset identity and version;
// bumping the version on upload makes every stale entry unreachable.
func cacheKey(dataset string, version uint64, planKey string) string {
	return cacheKeyPrefix(dataset, version) + planKey
}

// planKey keys a compiled plan by everything that shapes it: the
// normalized query fingerprint (shape.Normalized.Fingerprint — exact
// structure, exact weights, alternative order) plus the effective
// score-relevant request options. Every other executor option the server
// uses is a process-wide constant (DefaultOptions), so it needs no key
// component; Parallelism is deliberately absent — it is per-request
// (Plan.WithParallelism wraps the cached plan without recompiling). Plans
// are dataset-independent and immutable, so plan-cache entries are never
// invalidated, only evicted.
func planKey(fingerprint string, alg executor.Algorithm, k int, pruning bool) string {
	return fmt.Sprintf("%d\x00%d\x00%t\x00%s", alg, k, pruning, fingerprint)
}

// cachedCandidates is one candidate-cache entry's payload: the grouped
// candidate visualizations plus — for corpus-scale entries — the prebuilt
// shape index over their bound summaries, so repeated queries pay the index
// build once alongside EXTRACT + GROUP, not per search. index is nil for
// small corpora (below indexMinVizs) and when the engine cannot use it.
//
// espec, plan and patchable are the append path's repair metadata: the
// effective extract spec the vizs were built from, one plan whose GROUP
// configuration produced them (any plan sharing the candidate key works),
// and whether that configuration is per-series local (Plan.PinFree) so a
// touched group can be regrouped alone and spliced in place. Searches
// ignore them.
//
// vizs come from the server's chart pool (Server.vizPool), so entries over
// equal series hold the same *executor.Viz objects; a Viz is immutable
// apart from its memoized scoring state, which any entry may fill.
type cachedCandidates struct {
	vizs      []*executor.Viz
	index     *executor.VizIndex
	espec     dataset.ExtractSpec
	plan      *executor.Plan
	patchable bool
	// zpos maps each viz's z value to its position in vizs, so a patch
	// locates a delta's touched groups in O(|delta|) instead of scanning
	// the corpus. Only append patchers (serialized on Server.appendMu)
	// touch it after construction; searches never read it.
	zpos map[string]int
}

// buildZPos indexes a viz slice by z value.
func buildZPos(vizs []*executor.Viz) map[string]int {
	zpos := make(map[string]int, len(vizs))
	for i, v := range vizs {
		if v != nil {
			zpos[v.Series.Z] = i
		}
	}
	return zpos
}
