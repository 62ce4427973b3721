package executor

import (
	"fmt"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

// fabSub fabricates a sub-result with one boundary column of n values.
func fabSub(n int) *subResult {
	col := storage.ColData{Kind: rel.KindInt, Ints: make([]int64, n)}
	for i := range col.Ints {
		col.Ints[i] = int64(i)
	}
	return &subResult{
		count: n,
		cols:  []storage.ColData{col},
	}
}

// TestSkeletonCacheValueBudget: the value budget evicts LRU entries so
// the retained materialized values never exceed it, independently of
// the entry budget.
func TestSkeletonCacheValueBudget(t *testing.T) {
	c := NewSkeletonCache(0, 100)
	for i := 0; i < 10; i++ {
		c.putSub(fmt.Sprintf("k%d", i), fabSub(30)) // 30 values each
	}
	if v := c.Values(); v > 100 {
		t.Fatalf("values %d exceed budget 100", v)
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("entries after value eviction: %d, want 3 (3*30 <= 100 < 4*30)", n)
	}
	// The survivors must be the most recently inserted keys.
	for _, k := range []string{"k7", "k8", "k9"} {
		if _, ok := c.getSub(k); !ok {
			t.Errorf("recently used %s evicted", k)
		}
	}
	if _, ok := c.getSub("k0"); ok {
		t.Error("least recently used k0 survived over budget")
	}
}

// TestSkeletonCacheOversizedEntryDropped: an entry that alone exceeds
// the value budget is declined without disturbing the entries already
// cached — one skewed subtree must not wipe the workload's accumulated
// reuse.
func TestSkeletonCacheOversizedEntryDropped(t *testing.T) {
	c := NewSkeletonCache(0, 50)
	c.putSub("small", fabSub(10))
	c.putSub("small2", fabSub(10))
	c.putSub("huge", fabSub(500))
	if _, ok := c.getSub("huge"); ok {
		t.Fatal("oversized entry must not be retained")
	}
	for _, k := range []string{"small", "small2"} {
		if _, ok := c.getSub(k); !ok {
			t.Fatalf("oversized insert evicted unrelated entry %s", k)
		}
	}
	if v := c.Values(); v > 50 {
		t.Fatalf("values %d exceed budget after oversized insert", v)
	}
}

// TestSkeletonCacheValueAccounting: replacements adjust the running
// total instead of double-counting, and eviction refunds the entry.
func TestSkeletonCacheValueAccounting(t *testing.T) {
	c := NewSkeletonCache(0, 1000)
	c.putSub("a", fabSub(100))
	if v := c.Values(); v != 100 {
		t.Fatalf("values after insert: %d, want 100", v)
	}
	c.putSub("a", fabSub(40))
	if v := c.Values(); v != 40 {
		t.Fatalf("values after replacement: %d, want 40", v)
	}
	// Push "a" out with value pressure.
	c.putSub("b", fabSub(990))
	if _, ok := c.getSub("a"); ok {
		t.Fatal("a should have been evicted")
	}
	// Zero-column sub-results still cost at least one value, so
	// value-only budgets always make progress.
	c2 := NewSkeletonCache(0, 3)
	for i := 0; i < 10; i++ {
		c2.putSub(fmt.Sprintf("z%d", i), &subResult{count: 5})
	}
	if n := c2.Len(); n > 3 {
		t.Fatalf("zero-column entries unbounded: %d", n)
	}
}
