package executor

// SkeletonCache: the one store that carries count-skeleton validation
// work across plans, rounds and queries (DESIGN.md §2). It is one
// mutex-guarded LRU, made by NewSkeletonCache with an entry budget and a
// materialized-value budget (0 for either: unbounded). A
// re-optimization's private cache is an unbounded one that dies with the
// run; a workload's is a bounded one shared across queries and catalogs.
//
// The store does not namespace anything itself. Every key it sees was
// rendered by a Prepared (prepared.go), which prefixes sub-result keys
// with the sample epoch it was made for, so refreshed samples — or
// another catalog — never serve counts observed on other samples;
// entries of older epochs age out of the LRU.
//
// The value budget is counted in cells — one per boundary-column cell and
// weight of a sub-result's physical rows — never in bytes, so budget
// verdicts and eviction decisions do not depend on how a column is
// represented.
//
// Entries are keyed by the subtree's canonical signature (relation set
// plus every predicate applied within it) *and* its boundary-column
// set. The signature alone identifies the logical sub-result's count,
// but the materialized columns depend on which columns enclosing joins
// may probe — a property of the whole query, not the subtree — so two
// queries sharing a subtree but joining it differently must not share
// the materialization. Only sub-results are cached: a join builds the
// hash table over its build side, probes it and drops it.

import (
	"container/list"
	"slices"
	"sync"
)

// SkeletonCache is the one validation cache: subtree sub-results, keyed
// so that two plans' subtrees share an entry exactly when they compute
// the same logical sub-result with the same boundary columns over the
// same samples. All methods are safe for concurrent use, and the
// diagnostics read zero on a nil cache. Requests reach it through a
// Prepared, which carries the key namespace.
type SkeletonCache struct {
	mu    sync.Mutex
	limit int // max sub-result entries; 0 = unbounded
	// valueLimit bounds the total number of *materialized values* retained
	// across all entries — boundary-column cells and weights
	// (0 = unbounded). The entry limit alone cannot bound memory on
	// skewed workloads: a few huge subtrees (a cross-product-ish join
	// whose boundary columns carry hundreds of thousands of values) can
	// dominate while the entry count stays tiny. Eviction is
	// least-recently-used under both budgets, so an entry that alone
	// exceeds the value budget is simply not retained.
	valueLimit int
	values     int // current total materialized values (see entryValues)
	subs       map[string]*list.Element
	lru        *list.List // front = most recently used

	hits, misses int64
	// What the sub-results stored so far count (Σ total) and the physical
	// rows they hold it in (Σ count): the compression weights are buying.
	rowsCounted, rowsMaterialized int64
}

// skelCacheEntry is one cached sub-result under its key.
type skelCacheEntry struct {
	key string
	sub *subResult
}

// NewSkeletonCache returns an empty cache that holds at most limit
// sub-results and at most valueLimit materialized values, evicting
// least-recently-used entries beyond either; <= 0 leaves that budget
// unbounded. The value budget counts every boundary-column cell and
// weight held by cached sub-results, so skewed workloads where a few huge
// subtrees dominate stay within it even when the entry count would not.
func NewSkeletonCache(limit, valueLimit int) *SkeletonCache {
	return &SkeletonCache{
		limit:      max(limit, 0),
		valueLimit: max(valueLimit, 0),
		subs:       make(map[string]*list.Element),
		lru:        list.New(),
	}
}

// entryValues is the value-budget charge for one sub-result: its
// materialized cells (subCharge — cells, not bytes, so the charge does
// not depend on how a column is represented), floored at 1 so zero-column
// entries still consume budget and eviction always makes progress.
func entryValues(sub *subResult) int {
	return max(1, int(subCharge(sub)))
}

// Len returns the number of cached sub-results (diagnostics).
func (s *SkeletonCache) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Stats reports sub-result lookup hits and misses (diagnostics).
func (s *SkeletonCache) Stats() (hits, misses int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// RowStats reports, over every sub-result stored so far, the rows they
// count and the physical rows materialized to hold them (diagnostics).
func (s *SkeletonCache) RowStats() (counted, materialized int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsCounted, s.rowsMaterialized
}

// Keys returns the keys of every cached sub-result, under every prefix,
// sorted (diagnostics: what two runs stored compares as two lists).
func (s *SkeletonCache) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.subs))
	for k := range s.subs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Values returns the total materialized values currently retained (the
// quantity the value budget bounds; diagnostics).
func (s *SkeletonCache) Values() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.values
}

// getSub looks a sub-result up, refreshing its recency on a hit.
func (s *SkeletonCache) getSub(key string) (*subResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.subs[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*skelCacheEntry).sub, true
}

// putSub inserts (or refreshes) a sub-result, evicting the
// least-recently-used entries beyond the entry and value budgets. A
// sub-result whose values alone exceed the value budget is declined up
// front, before touching the LRU: inserting it first would evict every
// smaller entry ahead of the oversized one, wiping the cache for an
// entry that could never be retained anyway. (Keys are
// content-addressed, so if the key is already cached its sub-result is
// logically identical — declining the refresh loses nothing.)
func (s *SkeletonCache) putSub(key string, sub *subResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.valueLimit > 0 && entryValues(sub) > s.valueLimit {
		return
	}
	if el, ok := s.subs[key]; ok {
		e := el.Value.(*skelCacheEntry)
		s.values += entryValues(sub) - entryValues(e.sub)
		e.sub = sub
		s.lru.MoveToFront(el)
		s.shrinkLocked()
		return
	}
	s.subs[key] = s.lru.PushFront(&skelCacheEntry{key: key, sub: sub})
	s.values += entryValues(sub)
	s.rowsCounted, s.rowsMaterialized = s.rowsCounted+sub.total, s.rowsMaterialized+int64(sub.count)
	s.shrinkLocked()
}

// shrinkLocked evicts least-recently-used entries until both budgets
// hold (or the cache is empty).
func (s *SkeletonCache) shrinkLocked() {
	for (s.limit > 0 && len(s.subs) > s.limit) ||
		(s.valueLimit > 0 && s.values > s.valueLimit) {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.evictLocked(oldest)
	}
}

// evictLocked removes one entry.
func (s *SkeletonCache) evictLocked(el *list.Element) {
	e := el.Value.(*skelCacheEntry)
	s.lru.Remove(el)
	delete(s.subs, e.key)
	s.values -= entryValues(e.sub)
}

// TemplateStats once reported template-index lookups.
//
// Deprecated: there is no template index; TemplateStats does nothing and
// always returns 0, 0. bench/ is its last caller.
func (s *SkeletonCache) TemplateStats() (hits, misses int64) { return 0, 0 }
