package sampling

// WorkloadCache: the validation cache promoted from one re-optimization
// to a workload. A workload of similar queries — the shape of the
// paper's §6 experiments, where each template is instantiated many
// times — re-validates near-identical subtrees over the same samples
// again and again. Subtree signatures already encode the relation set
// and every predicate, so counts are reusable across *queries*, not
// just across one re-optimization's rounds; what that takes is a cache
// that (a) survives the re-optimization, (b) bounds its memory with an
// eviction policy, and (c) can never serve counts observed on a
// previous sample set.
//
// All three come from the executor's one store: a WorkloadCache *is* an
// executor.SkeletonCache, bounded, and a re-optimization's private cache
// is the same store unbounded. (c) comes from the catalog's sample
// epoch: every BuildSamples call takes a process-unique epoch, every
// handle (Prepare) renders its keys under the epoch of the samples it
// validates, and entries from earlier sample sets (or other catalogs)
// become unreachable and age out of the LRU. Reuse never changes
// estimates — cached counts are the counts the skeleton run would
// recompute, byte for byte — it only changes when they are computed.

import "reopt/internal/executor"

// DefaultWorkloadCacheEntries is the default sub-result budget for a
// workload cache: enough for a few hundred distinct subtrees — dozens
// of multi-join queries' worth — while bounding retained sample
// materializations.
const DefaultWorkloadCacheEntries = 4096

// WorkloadCache reuses validation counts across the queries of one
// workload. It is safe for concurrent use against any number of
// catalogs: keys carry the process-unique sample epoch of the catalog
// they were computed on, so validations against different catalogs — or
// across a BuildSamples call — can never serve each other's counts.
type WorkloadCache = executor.SkeletonCache

// NewWorkloadCache returns a cache holding at most maxEntries subtree
// sub-results (least-recently-used eviction; <= 0 selects
// DefaultWorkloadCacheEntries).
func NewWorkloadCache(maxEntries int) *WorkloadCache {
	return NewWorkloadCacheBudget(maxEntries, 0)
}

// NewWorkloadCacheBudget is NewWorkloadCache with an additional budget
// on the total *materialized values* — boundary-column cells and
// weights of the cached sub-results, its only entries — the cache may
// retain (<= 0 means unbounded). The entry budget alone cannot bound
// memory on skewed workloads: a handful of huge subtrees — joins whose
// boundary columns carry hundreds of thousands of values — can dominate
// retained memory while the entry count stays small. Under the value
// budget, least-recently-used entries are evicted until the total fits,
// and an entry that alone exceeds the budget is simply not retained.
func NewWorkloadCacheBudget(maxEntries, maxValues int) *WorkloadCache {
	if maxEntries <= 0 {
		maxEntries = DefaultWorkloadCacheEntries
	}
	return executor.NewSkeletonCache(maxEntries, maxValues)
}
