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
// total instead of double-counting, and eviction drops the entry's hash
// tables with it.
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
	c.putTable("a", "a||K:t.k&", &joinTable{head: []int32{1, 0}, next: []int32{0}, shift: 63})
	if c.getTable("a||K:t.k&") == nil {
		t.Fatal("table not registered")
	}
	// Push "a" out with value pressure; its table must go too.
	c.putSub("b", fabSub(990))
	if _, ok := c.getSub("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if c.getTable("a||K:t.k&") != nil {
		t.Fatal("evicted entry's hash table survived")
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

// TestSkeletonCacheTablesCharged: a cached hash table retains
// len(head)+len(next) int32 slots and is charged to the value budget as
// such (two slots a value, rounded up), so a budgeted cache stays within
// its limit while tables are cached — a table that cannot fit beside its
// sub-result is declined — and evicting the sub-result refunds its
// tables.
func TestSkeletonCacheTablesCharged(t *testing.T) {
	const limit = 100
	c := NewSkeletonCache(0, limit)
	// 30 build rows: 32 buckets + 30 chain slots = 62 int32s = 31 values.
	table := buildHashTable(fabSub(30), []int{0})
	if got := table.values(); got != 31 || len(table.head) != 32 || len(table.next) != 30 {
		t.Fatalf("30-row table: %d values, %d head, %d next; want 31, 32, 30", got, len(table.head), len(table.next))
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		c.putSub(k, fabSub(30))
		for j := 0; j < 3; j++ {
			c.putTable(k, fmt.Sprintf("%s||K:%d", k, j), table)
			if v := c.Values(); v > limit {
				t.Fatalf("values %d exceed budget %d with tables cached", v, limit)
			}
		}
	}
	// k9 holds 30 cells and two 30-row tables; the third could never fit
	// beside them and was declined, and every older entry was evicted.
	if v := c.Values(); v != 92 {
		t.Fatalf("values = %d, want 92 (30 cells + 2 tables x 31 values)", v)
	}
	if c.getTable("k9||K:0") == nil || c.getTable("k9||K:1") == nil {
		t.Fatal("tables that fit the budget must be cached")
	}
	if c.getTable("k9||K:2") != nil {
		t.Fatal("a table that cannot fit beside its sub-result must be declined")
	}
	if c.Len() != 1 {
		t.Fatalf("entries = %d, want 1", c.Len())
	}
	// Re-putting a cached table key charges nothing more.
	c.putTable("k9", "k9||K:0", table)
	if v := c.Values(); v != 92 {
		t.Fatalf("values after duplicate table put = %d, want 92", v)
	}
	// Eviction refunds the entry's tables with it.
	c.putSub("big", fabSub(100))
	if v := c.Values(); v != 100 {
		t.Fatalf("values after evicting k9 = %d, want 100", v)
	}
	if c.getTable("k9||K:0") != nil {
		t.Fatal("evicted entry's table survived")
	}
}
