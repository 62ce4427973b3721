package executor

import (
	"context"
	"errors"
	"slices"
	"testing"

	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// The tests reach the engine through its one entry point,
// CountSkeletonSteps, with these helpers: a plan paired with a cache
// (nil: uncached) validates through a handle prepared for its query, and
// counts come back by plan node.

// prep pairs p with a fresh handle for its query over cache.
func prep(p *plan.Plan, cache *SkeletonCache) BatchPlan {
	return BatchPlan{Plan: p, Prep: NewPrepared(p.Query, cache, 0, nil)}
}

// batchOf pairs every plan with the same cache (nil: uncached).
func batchOf(plans []*plan.Plan, cache *SkeletonCache) []BatchPlan {
	bplans := make([]BatchPlan, len(plans))
	for i, p := range plans {
		bplans[i] = prep(p, cache)
	}
	return bplans
}

// countBatch is CountSkeletonSteps with each plan's counts by node (nil
// for a plan that failed on its own account).
func countBatch(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), cfg SkelConfig) ([]map[plan.Node]int64, []error, error) {
	steps, perPlan, err := CountSkeletonSteps(ctx, bplans, binder, cfg)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]map[plan.Node]int64, len(bplans))
	for i := range steps {
		if perPlan[i] == nil {
			counts[i] = make(map[plan.Node]int64, len(steps[i]))
			for _, st := range steps[i] {
				counts[i][st.Node()] = st.Count
			}
		}
	}
	return counts, perPlan, nil
}

// countSkeletonCfg validates p alone through cache; its failure, whether
// the batch's or its own, is the error.
func countSkeletonCfg(ctx context.Context, p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, cfg SkelConfig) (map[plan.Node]int64, error) {
	counts, perPlan, err := countBatch(ctx, []BatchPlan{prep(p, cache)}, binder, cfg)
	if err != nil {
		return nil, err
	}
	return counts[0], perPlan[0]
}

func countSkeleton(p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache) (map[plan.Node]int64, error) {
	return countSkeletonCfg(context.Background(), p, binder, cache, SkelConfig{})
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
		seqCache := NewSkeletonCache(0, 0)
		for pi, p := range plans {
			counts, err := countSkeleton(p, cat.Table, seqCache)
			if err != nil {
				t.Fatalf("seed %d plan %d sequential: %v", seed, pi, err)
			}
			want[pi] = counts
		}

		check := func(label string, cache *SkeletonCache) {
			t.Helper()
			got, perPlan, err := countBatch(ctx, batchOf(plans, cache), cat.Table, SkelConfig{})
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

		fresh := NewSkeletonCache(0, 0)
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

	cache := NewSkeletonCache(0, 0)
	if _, _, err := countBatch(context.Background(), batchOf(plans, cache), cat.Table, SkelConfig{}); err != nil {
		t.Fatal(err)
	}
	seqCache := NewSkeletonCache(0, 0)
	nodes := 0
	for _, p := range plans {
		if _, err := countSkeleton(p, cat.Table, seqCache); err != nil {
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
	counts, perPlan, err := countBatch(context.Background(), batchOf(batch, nil), cat.Table, SkelConfig{})
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
		ref, err := countSkeleton(batch[pi], cat.Table, nil)
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
// caches, or none — each requester holding a private per-run cache —
// must validate in one call with
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
		solo[pi] = NewSkeletonCache(0, 0)
		counts, err := countSkeleton(p, cat.Table, solo[pi])
		if err != nil {
			t.Fatal(err)
		}
		want[pi] = counts
	}

	caches := make([]*SkeletonCache, len(plans))
	bplans := make([]BatchPlan, len(plans))
	for i, p := range plans {
		if i != 1 { // the second requester validates uncached
			caches[i] = NewSkeletonCache(0, 0)
		}
		bplans[i] = prep(p, caches[i])
	}
	got, perPlan, err := countBatch(context.Background(), bplans, cat.Table, SkelConfig{})
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
		if _, err := countSkeleton(p, cat.Table, caches[pi]); err != nil {
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
	c := NewSkeletonCache(2, 0)
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

	// A handle namespaces its keys by its sample epoch: another epoch's
	// entries are unreachable through it and age out.
	if got := subKey(NewPrepared(skelQuery(), c, 2, nil).prefix, "sig", nil); got != "s2|sig|B:" {
		t.Errorf("subKey with prefix: %q", got)
	}
}

// TestBoundaryColumnsInKey: two queries sharing a subtree signature but
// joining it through different columns must not share a cache entry —
// the boundary-column set is part of the key.
func TestBoundaryColumnsInKey(t *testing.T) {
	refs1 := []sql.ColRef{{Table: "t1", Column: "k"}}
	refs2 := []sql.ColRef{{Table: "t1", Column: "k2"}}
	if subKey(testPrefix, "sig", refs1) == subKey(testPrefix, "sig", refs2) {
		t.Fatal("different boundary sets produced the same cache key")
	}
}
