package executor

import (
	"context"
	"errors"
	"slices"
	"testing"

	"reopt/internal/plan"
	"reopt/internal/sql"
)

// batchOf pairs every plan with the same cache (nil: uncached).
func batchOf(plans []*plan.Plan, cache *SkeletonCache) []BatchPlan {
	bplans := make([]BatchPlan, len(plans))
	for i, p := range plans {
		bplans[i] = BatchPlan{Plan: p, Cache: cache}
	}
	return bplans
}

// TestCountSkeletonBatchMatchesSequential: validating several plans in
// one call must report exactly the per-node counts sequential single-plan
// runs produce — with and without a cache, with a cache pre-warmed by
// sequential runs — and leave a shared cache holding exactly the keys
// and values the sequential runs leave.
func TestCountSkeletonBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 4; seed++ {
		cat := skelCatalog(t, seed, 400)
		q := skelQuery()
		plans := skelPlans(cat, q)

		// Reference: sequential runs sharing one cache.
		want := make([]map[plan.Node]int64, len(plans))
		seqCache := NewSkeletonCache()
		for pi, p := range plans {
			counts, err := CountSkeleton(p, cat.Table, seqCache)
			if err != nil {
				t.Fatalf("seed %d plan %d sequential: %v", seed, pi, err)
			}
			want[pi] = counts
		}

		check := func(label string, cache *SkeletonCache) {
			t.Helper()
			got, perPlan, err := CountSkeletonBatchCfg(ctx, batchOf(plans, cache), cat.Table, SkelConfig{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			for pi := range plans {
				if perPlan[pi] != nil {
					t.Fatalf("seed %d %s plan %d: %v", seed, label, pi, perPlan[pi])
				}
				plan.Walk(plans[pi].Root, func(n plan.Node) {
					if got[pi][n] != want[pi][n] {
						t.Errorf("seed %d %s plan %d node %v: batch %d, sequential %d",
							seed, label, pi, n.Aliases(), got[pi][n], want[pi][n])
					}
				})
			}
		}

		check("uncached", nil)

		fresh := NewSkeletonCache()
		check("fresh-cache", fresh)
		if !slices.Equal(fresh.Keys(), seqCache.Keys()) || fresh.Values() != seqCache.Values() {
			t.Errorf("seed %d: batch left %d keys / %d values, sequential runs %d / %d",
				seed, len(fresh.Keys()), fresh.Values(), len(seqCache.Keys()), seqCache.Values())
		}

		// A second batch over a warmed cache must be a pure replay.
		hits0, miss0 := fresh.Stats()
		check("warm-cache", fresh)
		if hits1, miss1 := fresh.Stats(); hits1 <= hits0 || miss1 != miss0 {
			t.Errorf("seed %d: warm batch went %d/%d -> %d/%d hits/misses", seed, hits0, miss0, hits1, miss1)
		}

		// And a batch over the sequential runs' cache must agree too
		// (mixed sequential/batched usage of one cache).
		check("seq-cache", seqCache)
	}
}

// TestCountSkeletonBatchDedupes: a batch of join-order permutations of
// one query through one cache must compute each logical subtree once —
// one miss and one entry per distinct sub-result, every other lookup a
// hit — exactly as sequential runs over a shared cache do.
func TestCountSkeletonBatchDedupes(t *testing.T) {
	cat := skelCatalog(t, 7, 400)
	plans := skelPlans(cat, skelQuery())

	cache := NewSkeletonCache()
	if _, _, err := CountSkeletonBatchCfg(context.Background(), batchOf(plans, cache), cat.Table, SkelConfig{}); err != nil {
		t.Fatal(err)
	}
	seqCache := NewSkeletonCache()
	nodes := 0
	for _, p := range plans {
		if _, err := CountSkeleton(p, cat.Table, seqCache); err != nil {
			t.Fatal(err)
		}
		plan.Walk(p.Root, func(plan.Node) { nodes++ })
	}
	if cache.Len() != seqCache.Len() {
		t.Errorf("batch materialized %d distinct subtrees, sequential %d", cache.Len(), seqCache.Len())
	}
	hits, misses := cache.Stats()
	if int(misses) != cache.Len() || int(hits+misses) != nodes {
		t.Errorf("%d hits / %d misses over %d nodes and %d distinct subtrees: a subtree was computed twice",
			hits, misses, nodes, cache.Len())
	}
}

// TestCountSkeletonBatchIsolatesUnsupportedPlans: one plan outside the
// engine's contract must not poison the batch — it reports
// ErrSkeletonUnsupported in its slot while the others execute.
func TestCountSkeletonBatchIsolatesUnsupportedPlans(t *testing.T) {
	cat := skelCatalog(t, 1, 300)
	q := skelQuery()
	plans := skelPlans(cat, q)

	// A query with no join list yields no boundary columns, so the join
	// predicates cannot resolve — the classic unsupported shape.
	badQ := skelQuery()
	badQ.Joins = nil
	bad := skelPlans(cat, q)[0]
	bad = &plan.Plan{Root: bad.Root, Query: badQ}

	batch := []*plan.Plan{plans[0], bad, plans[1]}
	counts, perPlan, err := CountSkeletonBatchCfg(context.Background(), batchOf(batch, nil), cat.Table, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if perPlan[0] != nil || perPlan[2] != nil {
		t.Fatalf("good plans errored: %v, %v", perPlan[0], perPlan[2])
	}
	if !errors.Is(perPlan[1], ErrSkeletonUnsupported) {
		t.Fatalf("bad plan: want ErrSkeletonUnsupported, got %v", perPlan[1])
	}
	if counts[1] != nil {
		t.Error("bad plan should have nil counts")
	}
	for _, pi := range []int{0, 2} {
		ref, err := CountSkeleton(batch[pi], cat.Table, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(batch[pi].Root, func(n plan.Node) {
			if counts[pi][n] != ref[n] {
				t.Errorf("plan %d node %v: %d != %d", pi, n.Aliases(), counts[pi][n], ref[n])
			}
		})
	}
}

// TestCountSkeletonBatchPlansPerPlanCaches: plans carrying *different*
// caches, or none — the cross-query scheduler's shape, each requester
// holding a private per-run cache — must validate in one call with
// counts matching solo runs, every requester's cache left holding
// exactly what a solo run leaves it, and nothing of one requester's in
// another's.
func TestCountSkeletonBatchPlansPerPlanCaches(t *testing.T) {
	cat := skelCatalog(t, 3, 400)
	q := skelQuery()
	plans := skelPlans(cat, q)
	if len(plans) < 2 {
		t.Fatal("need at least two plans")
	}

	want := make([]map[plan.Node]int64, len(plans))
	solo := make([]*SkeletonCache, len(plans))
	for pi, p := range plans {
		solo[pi] = NewSkeletonCache()
		counts, err := CountSkeleton(p, cat.Table, solo[pi])
		if err != nil {
			t.Fatal(err)
		}
		want[pi] = counts
	}

	caches := make([]*SkeletonCache, len(plans))
	bplans := make([]BatchPlan, len(plans))
	for i, p := range plans {
		if i != 1 { // the second requester validates uncached
			caches[i] = NewSkeletonCache()
		}
		bplans[i] = BatchPlan{Plan: p, Cache: caches[i]}
	}
	got, perPlan, err := CountSkeletonBatchCfg(context.Background(), bplans, cat.Table, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range plans {
		if perPlan[pi] != nil {
			t.Fatalf("plan %d: %v", pi, perPlan[pi])
		}
		plan.Walk(p.Root, func(n plan.Node) {
			if got[pi][n] != want[pi][n] {
				t.Errorf("plan %d node %v: batch %d, solo %d", pi, n.Aliases(), got[pi][n], want[pi][n])
			}
		})
		if caches[pi] == nil {
			continue
		}
		if !slices.Equal(caches[pi].Keys(), solo[pi].Keys()) || caches[pi].Values() != solo[pi].Values() {
			t.Errorf("plan %d: cache holds %d keys / %d values, a solo run's %d / %d",
				pi, len(caches[pi].Keys()), caches[pi].Values(), len(solo[pi].Keys()), solo[pi].Values())
		}
		// The requester's cache must replay its plan without recomputation.
		hits0, miss0 := caches[pi].Stats()
		if _, err := CountSkeleton(p, cat.Table, caches[pi]); err != nil {
			t.Fatalf("plan %d warm replay: %v", pi, err)
		}
		if hits1, miss1 := caches[pi].Stats(); hits1 <= hits0 || miss1 != miss0 {
			t.Errorf("plan %d: warm replay went %d/%d -> %d/%d hits/misses", pi, hits0, miss0, hits1, miss1)
		}
	}
}

// TestSkeletonCacheLRUEviction: a bounded cache must hold at most its
// budget, evict in least-recently-used order, and drop hash tables with
// the sub-results they index.
func TestSkeletonCacheLRUEviction(t *testing.T) {
	c := NewSkeletonCacheLRU(2)
	subs := []*subResult{{count: 1}, {count: 2}, {count: 3}}
	c.putSub("a", subs[0])
	c.putSub("b", subs[1])
	c.putTable("b", "b||K:x", &joinTable{head: []int32{1, 0}, next: []int32{0}, shift: 63})

	// Touch "a" so "b" is the LRU entry, then overflow.
	if _, ok := c.getSub("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.putSub("c", subs[2])
	if c.Len() != 2 {
		t.Fatalf("cache over budget: %d entries", c.Len())
	}
	if _, ok := c.getSub("b"); ok {
		t.Error("b was recently-unused and should have been evicted")
	}
	if c.getTable("b||K:x") != nil {
		t.Error("evicting b should drop its hash table")
	}
	if _, ok := c.getSub("a"); !ok {
		t.Error("a was recently used and should survive")
	}
	if _, ok := c.getSub("c"); !ok {
		t.Error("c was just inserted and should survive")
	}

	// A prefix change namespaces new keys: old entries age out.
	c = c.WithPrefix("e2|")
	if got := c.subKey("sig", nil); got != "e2|sig|B:" {
		t.Errorf("subKey with prefix: %q", got)
	}
}

// TestBoundaryColumnsInKey: two queries sharing a subtree signature but
// joining it through different columns must not share a cache entry —
// the boundary-column set is part of the key.
func TestBoundaryColumnsInKey(t *testing.T) {
	c := NewSkeletonCache()
	refs1 := []sql.ColRef{{Table: "t1", Column: "k"}}
	refs2 := []sql.ColRef{{Table: "t1", Column: "k2"}}
	if c.subKey("sig", refs1) == c.subKey("sig", refs2) {
		t.Fatal("different boundary sets produced the same cache key")
	}
}
