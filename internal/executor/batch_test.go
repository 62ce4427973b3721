package executor

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// The tests reach the engine through its one entry point,
// Prepared.Count, with these helpers: a plan paired with a cache (nil:
// uncached) validates through a handle prepared for its query, and counts
// come back by plan node.

// countsByNode returns the counts of a plan's steps by plan node.
func countsByNode(steps []Step) map[plan.Node]int64 {
	counts := make(map[plan.Node]int64, len(steps))
	for _, st := range steps {
		counts[st.Node()] = st.Count
	}
	return counts
}

// prepareOver is a handle on p's query over the tables binder resolves,
// by FROM position, under budget.
func prepareOver(p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, budget int64) (*Prepared, error) {
	tables, err := tablesOf(p.Query, binder)
	if err != nil {
		return nil, err
	}
	return NewPrepared(sql.NewGraph(p.Query), cache, 0, tables, nil, budget)
}

// tablesOf resolves q's tables with binder, by FROM position.
func tablesOf(q *sql.Query, binder func(string) (*storage.Table, error)) ([]*storage.Table, error) {
	tables := make([]*storage.Table, len(q.Tables))
	for i, tr := range q.Tables {
		var err error
		if tables[i], err = binder(tr.Name); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// compileOnly is a handle on q that binds no tables: it compiles plans
// and renders keys under epoch's namespace, and validates nothing.
func compileOnly(t testing.TB, q *sql.Query, cache *SkeletonCache, epoch uint64) *Prepared {
	t.Helper()
	prep, err := NewPrepared(sql.NewGraph(q), cache, epoch, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// countSkeletonCfg validates p alone, through a fresh handle over cache.
func countSkeletonCfg(ctx context.Context, p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, budget int64) (map[plan.Node]int64, error) {
	prep, err := prepareOver(p, binder, cache, budget)
	if err != nil {
		return nil, err
	}
	steps, err := prep.Count(ctx, p.Root)
	if err != nil {
		return nil, err
	}
	return countsByNode(steps), nil
}

func countSkeleton(p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache) (map[plan.Node]int64, error) {
	return countSkeletonCfg(context.Background(), p, binder, cache, 0)
}

// countBatch validates plans in turn over cache, as one request does its
// rounds: the plans of one query through one shared handle. The first
// failure ends the batch.
func countBatch(ctx context.Context, plans []*plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, budget int64) ([]map[plan.Node]int64, error) {
	preps := map[*sql.Query]*Prepared{}
	counts := make([]map[plan.Node]int64, len(plans))
	for i, p := range plans {
		prep := preps[p.Query]
		if prep == nil {
			var err error
			if prep, err = prepareOver(p, binder, cache, budget); err != nil {
				return nil, err
			}
			preps[p.Query] = prep
		}
		steps, err := prep.Count(ctx, p.Root)
		if err != nil {
			return nil, err
		}
		counts[i] = countsByNode(steps)
	}
	return counts, nil
}

// TestCountSkeletonBatchMatchesSequential: validating several plans
// through one shared handle, as a request's rounds do, must report
// exactly the per-node counts single-plan runs through fresh handles
// produce — with and without a cache, with a cache pre-warmed by those
// runs — and leave a shared cache holding exactly the keys and values
// the single-plan runs leave.
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
			got, err := countBatch(ctx, plans, cat.Table, cache, 0)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			for pi := range plans {
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
// one query through one handle and cache must compute each logical subtree once —
// one miss and one entry per distinct sub-result, every other lookup a
// hit — exactly as sequential runs over a shared cache do.
func TestCountSkeletonBatchDedupes(t *testing.T) {
	cat := skelCatalog(t, 7, 400)
	plans := skelPlans(cat, skelQuery())

	cache := NewSkeletonCache(0, 0)
	if _, err := countBatch(context.Background(), plans, cat.Table, cache, 0); err != nil {
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

// TestCountSkeletonBatchIsolatesUnsupportedPlans: an unsupported plan
// validated between two good ones over one cache fails alone with
// ErrUnsupportedPlan and stores nothing; the good plans report the
// counts they report alone, and the cache ends up holding exactly what
// validating them without it leaves.
func TestCountSkeletonBatchIsolatesUnsupportedPlans(t *testing.T) {
	cat := skelCatalog(t, 1, 300)
	q := skelQuery()
	plans := skelPlans(cat, q)

	// A query with no join list yields no boundary columns, so the join
	// predicates cannot resolve — the classic unsupported shape.
	badQ := skelQuery()
	badQ.Joins = nil
	bad := &plan.Plan{Root: plans[0].Root, Query: badQ}

	wantCache := NewSkeletonCache(0, 0)
	if _, err := countBatch(context.Background(), []*plan.Plan{plans[0], plans[1]}, cat.Table, wantCache, 0); err != nil {
		t.Fatal(err)
	}

	cache := NewSkeletonCache(0, 0)
	batch := []*plan.Plan{plans[0], bad, plans[1]}
	for pi, p := range batch {
		counts, err := countSkeleton(p, cat.Table, cache)
		if p == bad {
			if !errors.Is(err, ErrUnsupportedPlan) {
				t.Fatalf("bad plan: want ErrUnsupportedPlan, got %v", err)
			}
			if counts != nil {
				t.Error("bad plan should have nil counts")
			}
			continue
		}
		if err != nil {
			t.Fatalf("good plan %d errored: %v", pi, err)
		}
		ref, err := countSkeleton(p, cat.Table, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(p.Root, func(n plan.Node) {
			if counts[n] != ref[n] {
				t.Errorf("plan %d node %v: %d != %d", pi, n.Aliases(), counts[n], ref[n])
			}
		})
	}
	if !slices.Equal(cache.Keys(), wantCache.Keys()) || cache.Values() != wantCache.Values() {
		t.Errorf("cache holds %d keys / %d values, the good plans alone leave %d / %d",
			len(cache.Keys()), cache.Values(), len(wantCache.Keys()), wantCache.Values())
	}

	alone := NewSkeletonCache(0, 0)
	if _, err := countSkeleton(bad, cat.Table, alone); !errors.Is(err, ErrUnsupportedPlan) {
		t.Fatalf("bad plan alone: want ErrUnsupportedPlan, got %v", err)
	}
	if alone.Len() != 0 {
		t.Errorf("validating the bad plan alone cached %d entries", alone.Len())
	}
}

// TestSkeletonCacheLRUEviction: a bounded cache must hold at most its
// budget and evict in least-recently-used order.
func TestSkeletonCacheLRUEviction(t *testing.T) {
	c := NewSkeletonCache(2, 0)
	subs := []*subResult{{count: 1}, {count: 2}, {count: 3}}
	c.putSub("a", subs[0])
	c.putSub("b", subs[1])

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
	if _, ok := c.getSub("a"); !ok {
		t.Error("a was recently used and should survive")
	}
	if _, ok := c.getSub("c"); !ok {
		t.Error("c was just inserted and should survive")
	}

	// A handle namespaces its keys by its sample epoch: another epoch's
	// entries are unreachable through it and age out.
	if got := subKey(compileOnly(t, skelQuery(), c, 2).prefix, "sig", nil); got != "s2|sig|B:" {
		t.Errorf("subKey with prefix: %q", got)
	}
}

// TestSkeletonCacheHoldsOnlySubResults: validations of OTT and TPC-H
// plans through one cache — unbounded, and bounded tightly enough to
// evict — leave it holding sub-results and nothing else: every key it
// reports is a sub-result's, and its value total is what those
// sub-results are charged.
func TestSkeletonCacheHoldsOnlySubResults(t *testing.T) {
	type workload struct {
		cat *catalog.Catalog
		qs  []*sql.Query
	}
	var wls []workload
	ottCat, err := ott.Generate(ott.Config{Seed: 1, RowsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 5} {
		qs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: n, SameConstant: 2, Count: 3, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, workload{ottCat, qs})
	}
	tpchCat, err := tpch.Generate(tpch.Config{Seed: 1, Customers: 150, Z: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tw := workload{cat: tpchCat}
	for _, tpl := range tpch.Templates() {
		q, err := sql.Parse(tpl.Gen(rng), tpchCat)
		if err != nil {
			t.Fatal(err)
		}
		tw.qs = append(tw.qs, q)
	}
	wls = append(wls, tw)

	for _, c := range []*SkeletonCache{NewSkeletonCache(0, 0), NewSkeletonCache(40, 2000)} {
		joins := 0
		for _, wl := range wls {
			for _, bushy := range []bool{true, false} {
				cfg := optimizer.DefaultConfig()
				cfg.BushyTrees = bushy
				opt := optimizer.New(wl.cat, cfg)
				for _, q := range wl.qs {
					p, err := opt.Optimize(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := countSkeleton(p, wl.cat.Table, c); err != nil {
						t.Fatalf("%s: %v", p.Fingerprint(), err)
					}
					joins += len(q.Tables) - 1
				}
			}
		}
		if joins < 50 || c.Len() == 0 {
			t.Fatalf("only %d joins validated, %d entries cached", joins, c.Len())
		}
		keys, subs := c.Keys(), cachedSubs(c)
		if len(keys) != c.Len() {
			t.Errorf("Keys() lists %d keys for %d sub-results", len(keys), c.Len())
		}
		want := 0
		for _, k := range keys {
			sub, ok := subs[k]
			if !ok {
				t.Errorf("key %q names no sub-result", k)
				continue
			}
			want += entryValues(sub)
		}
		if got := c.Values(); got != want {
			t.Errorf("Values() = %d, want %d (the held sub-results' charge)", got, want)
		}
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
