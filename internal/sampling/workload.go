package sampling

// WorkloadCache: the workload-level promotion of the per-re-optimization
// ValidationCache. A workload of similar queries — the shape of the
// paper's §6 experiments, where each template is instantiated many
// times — re-validates near-identical subtrees over the same samples
// again and again. Subtree signatures already encode the relation set
// and every predicate, so counts are reusable across *queries*, not
// just across one re-optimization's rounds; what was missing was a
// cache that (a) survives the re-optimization, (b) bounds its memory
// with an eviction policy, and (c) can never serve counts observed on a
// previous sample set.
//
// (a) and (b) come from the executor's LRU-bounded SkeletonCache; (c)
// comes from the catalog's sample epoch: every BuildSamples call takes
// a process-unique epoch, the cache namespaces all keys by the epoch of
// the catalog it is serving, and entries from earlier sample sets (or
// other catalogs) become unreachable and age out of the LRU. Reuse
// never changes estimates — cached counts are the counts the skeleton
// run would recompute, byte for byte — it only changes when they are
// computed.

import (
	"fmt"
	"sync/atomic"

	"reopt/internal/catalog"
	"reopt/internal/executor"
)

// DefaultWorkloadCacheEntries is the default sub-result budget for a
// workload cache: enough for a few hundred distinct subtrees — dozens
// of multi-join queries' worth — while bounding retained sample
// materializations.
const DefaultWorkloadCacheEntries = 4096

// WorkloadCache reuses validation counts across the queries of one
// workload. It is safe for concurrent use against any number of
// catalogs: each validation takes an immutable view of the shared
// store, prefixed with the epoch of the catalog it serves (epochs are
// process-unique), so concurrent validations against different catalogs
// — or across a BuildSamples call — keep their namespaces separate and
// can never serve each other's counts.
type WorkloadCache struct {
	skel *executor.SkeletonCache
	// view is the last epoch's view of skel: a workload validates against
	// one sample set for a long time, and the view is a value.
	view atomic.Pointer[epochView]
}

type epochView struct {
	epoch uint64
	skel  *executor.SkeletonCache
}

// NewWorkloadCache returns a cache holding at most maxEntries subtree
// sub-results (least-recently-used eviction; <= 0 selects
// DefaultWorkloadCacheEntries).
func NewWorkloadCache(maxEntries int) *WorkloadCache {
	return NewWorkloadCacheBudget(maxEntries, 0)
}

// NewWorkloadCacheBudget is NewWorkloadCache with an additional budget
// on the total *materialized boundary-column values* the cache may
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
	return &WorkloadCache{skel: executor.NewSkeletonCacheBudget(maxEntries, maxValues)}
}

// Len returns the number of cached subtree results (diagnostics).
func (c *WorkloadCache) Len() int {
	if c == nil {
		return 0
	}
	return c.skel.Len()
}

// Stats reports subtree lookup hits and misses (diagnostics).
func (c *WorkloadCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.skel.Stats()
}

// Keys returns every cached key, sorted (diagnostics).
func (c *WorkloadCache) Keys() []string { return c.skel.Keys() }

// TemplateStats reports template-index lookup hits and misses — the
// index is only populated and probed by template-sharing runs
// (ValidateConfig.Templates), so both stay zero otherwise
// (diagnostics).
func (c *WorkloadCache) TemplateStats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.skel.TemplateStats()
}

// RowStats reports the sample rows the cache's sub-results have counted
// and the physical rows materialized to hold them; their ratio is what
// weight compression saves (diagnostics).
func (c *WorkloadCache) RowStats() (counted, materialized int64) {
	if c == nil {
		return 0, 0
	}
	return c.skel.RowStats()
}

// Values returns the total materialized boundary-column values retained
// — the quantity NewWorkloadCacheBudget's value budget bounds
// (diagnostics).
func (c *WorkloadCache) Values() int {
	if c == nil {
		return 0
	}
	return c.skel.Values()
}

// skeleton implements Cache: it hands the engine a view of the shared
// store namespaced for the catalog's current sample set. The view is a
// value — deriving it mutates nothing — so concurrent validations
// against different catalogs each see exactly their own epoch.
func (c *WorkloadCache) skeleton(cat *catalog.Catalog) *executor.SkeletonCache {
	if c == nil {
		return nil
	}
	epoch := cat.SampleEpoch()
	if v := c.view.Load(); v != nil && v.epoch == epoch {
		return v.skel
	}
	v := &epochView{epoch: epoch, skel: c.skel.WithPrefix(fmt.Sprintf("s%d|", epoch))}
	c.view.Store(v)
	return v.skel
}
