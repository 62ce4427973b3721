package sampling

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
)

// batchSetup builds an OTT catalog plus the optimized plans of several
// query instances — the workload shape (similar queries over one
// database) the workload cache targets.
func batchSetup(t testing.TB, count int) (*catalog.Catalog, []*plan.Plan) {
	t.Helper()
	cat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: count, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		p, err := opt.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	return cat, plans
}

// perRun returns a re-optimization's private store: the one store,
// unbounded.
func perRun() *executor.SkeletonCache { return executor.NewSkeletonCache(0, 0) }

// workloadStore returns a workload's store: the one store, bounded as a
// session's shared cache is by default.
func workloadStore() *executor.SkeletonCache { return executor.NewSkeletonCache(4096, 0) }

// mustPrepare is core.Prepare, failing t on an error.
func mustPrepare(t testing.TB, q *sql.Query, store *executor.SkeletonCache, cat *catalog.Catalog) Cache {
	t.Helper()
	cache, err := core.Prepare(sql.NewGraph(q), store, cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// estimatePlans validates plans through store (nil: uncached) with no
// memory budget, in one call through a handle for the first plan's
// query; plans of other queries validate through the call's own handles.
func estimatePlans(plans []*plan.Plan, cat *catalog.Catalog, store *executor.SkeletonCache) ([]*Estimate, error) {
	return estimateWith(plans, cat, store, 0)
}

// estimateWith is estimatePlans under budget.
func estimateWith(plans []*plan.Plan, cat *catalog.Catalog, store *executor.SkeletonCache, budget int64) ([]*Estimate, error) {
	var cache Cache
	if len(plans) > 0 {
		var err error
		if cache, err = core.Prepare(sql.NewGraph(plans[0].Query), store, cat, budget); err != nil {
			return nil, err
		}
	}
	return core.EstimatePlans(context.Background(), plans, cat, cache)
}

// estimateOne is estimatePlans over the one plan.
func estimateOne(p *plan.Plan, cat *catalog.Catalog, cache *executor.SkeletonCache) (*Estimate, error) {
	ests, err := estimatePlans([]*plan.Plan{p}, cat, cache)
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// TestEstimatePlansMatchesSequential: validating several plans in one
// call must return estimates byte-identical — Delta for Delta,
// SampleRows for SampleRows — to estimating each plan alone, against
// every cache scope (none, per-run, workload-level, warm and cold).
func TestEstimatePlansMatchesSequential(t *testing.T) {
	cat, plans := batchSetup(t, 4)

	want := make([]*Estimate, len(plans))
	for i, p := range plans {
		e, err := estimateOne(p, cat, nil)
		if err != nil {
			t.Fatalf("plan %d sequential: %v", i, err)
		}
		want[i] = e
	}

	caches := map[string]*executor.SkeletonCache{
		"nil":      nil,
		"perrun":   perRun(),
		"workload": workloadStore(),
	}
	for name, cache := range caches {
		mode := "cache=" + name
		got, err := estimatePlans(plans, cat, cache)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for i := range plans {
			compareEstimates(t, "batch", i, mode, got[i], want[i])
		}
		if cache == nil {
			continue
		}
		// A second, warm pass must replay from the cache and agree.
		got, err = estimatePlans(plans, cat, cache)
		if err != nil {
			t.Fatalf("%s warm: %v", mode, err)
		}
		for i := range plans {
			compareEstimates(t, "batch", i, mode+" warm", got[i], want[i])
		}
	}
}

// checkIsolated requires bad, validated under budget beside good in one
// call at every position, to fail the call with want while the plans
// beside it behave as they do alone: the store ends up holding exactly
// what validating good alone leaves — bad stores nothing — and each good
// plan, validated again through that store, returns its estimate alone
// without computing anything. bad validated alone stores nothing either.
func checkIsolated(t *testing.T, label string, cat *catalog.Catalog, good []*plan.Plan, bad *plan.Plan, budget int64, want error) {
	t.Helper()
	wantStore := perRun()
	alone, err := estimateWith(good, cat, wantStore, budget)
	if err != nil {
		t.Fatalf("%s: good plans alone: %v", label, err)
	}
	for i := 0; i <= len(good); i++ {
		store := perRun()
		_, err := estimateWith(slices.Insert(slices.Clone(good), i, bad), cat, store, budget)
		if !errors.Is(err, want) {
			t.Fatalf("%s: failing plan at position %d: %v, want %v", label, i, err, want)
		}
		if !slices.Equal(store.Keys(), wantStore.Keys()) || store.Values() != wantStore.Values() {
			t.Fatalf("%s: failing plan at position %d: cache holds %d keys / %d values, the good plans alone %d / %d",
				label, i, store.Len(), store.Values(), wantStore.Len(), wantStore.Values())
		}
		_, misses := store.Stats()
		for j, p := range good {
			got, err := estimateWith([]*plan.Plan{p}, cat, store, budget)
			if err != nil {
				t.Fatalf("%s: failing plan at position %d: plan %d afterwards: %v", label, i, j, err)
			}
			compareEstimates(t, label, j, fmt.Sprintf("beside a failing plan at position %d", i), got[0], alone[j])
		}
		if _, m := store.Stats(); m != misses {
			t.Fatalf("%s: failing plan at position %d: the good plans recomputed %d sub-results afterwards", label, i, m-misses)
		}
	}
	store := perRun()
	if _, err := estimateWith([]*plan.Plan{bad}, cat, store, budget); !errors.Is(err, want) {
		t.Fatalf("%s: failing plan alone: %v, want %v", label, err, want)
	}
	if store.Len() != 0 {
		t.Fatalf("%s: validating the failing plan alone cached %d entries", label, store.Len())
	}
}

// TestEstimatePlansRejectsUnsupportedPlan: a plan the count engine cannot
// run fails the call with ErrUnsupportedPlan and stores nothing, while
// the plans beside it are validated as they are alone — their counts and
// cache entries — whichever cache each validates through, or none.
func TestEstimatePlansRejectsUnsupportedPlan(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	badQ := *plans[0].Query
	badQ.Joins = nil
	bad := &plan.Plan{Root: plans[0].Root, Query: &badQ}
	checkIsolated(t, "unsupported", cat, plans, bad, 0, executor.ErrUnsupportedPlan)

	// The three plans as three calls, each through its own cache: a
	// workload-cache holder, an uncached one holding the unsupported plan,
	// a per-run one.
	mixed := []*plan.Plan{plans[0], bad, plans[1]}
	caches := []Cache{mustPrepare(t, mixed[0].Query, workloadStore(), cat), nil, mustPrepare(t, mixed[2].Query, perRun(), cat)}
	for i, cache := range caches {
		ests, err := core.EstimatePlans(context.Background(), mixed[i:i+1], cat, cache)
		if mixed[i] == bad {
			if !errors.Is(err, executor.ErrUnsupportedPlan) {
				t.Fatalf("call %d: %v, want ErrUnsupportedPlan", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want, err := estimateOne(mixed[i], cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareEstimates(t, "rejected", i, "one call per cache", ests[0], want)
	}
}

// TestWorkloadCacheReusesAcrossQueries: validating a workload of similar
// queries twice against one workload store must serve the second pass
// from the cache (hits recorded, no growth) with identical estimates.
func TestWorkloadCacheReusesAcrossQueries(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	wc := workloadStore()

	cold := make([]*Estimate, len(plans))
	for i, p := range plans {
		ests, err := estimatePlans([]*plan.Plan{p}, cat, wc)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = ests[0]
	}
	size := wc.Len()
	if size == 0 {
		t.Fatal("workload cache recorded nothing")
	}
	hits0, _ := wc.Stats()

	for i, p := range plans {
		ests, err := estimatePlans([]*plan.Plan{p}, cat, wc)
		if err != nil {
			t.Fatal(err)
		}
		compareEstimates(t, "workload", i, "second pass", ests[0], cold[i])
	}
	if wc.Len() != size {
		t.Errorf("second pass grew the cache: %d -> %d", size, wc.Len())
	}
	if hits1, _ := wc.Stats(); hits1 <= hits0 {
		t.Error("second pass recorded no cache hits")
	}
}

// TestWorkloadCacheSampleEpochInvalidation: refreshing the catalog's
// samples must never serve counts observed on the old sample set — the
// epoch namespace makes stale entries unreachable, and post-refresh
// estimates must equal a cold, uncached run over the new samples.
func TestWorkloadCacheSampleEpochInvalidation(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	wc := workloadStore()
	if _, err := estimatePlans(plans, cat, wc); err != nil {
		t.Fatal(err)
	}

	// Rebuild with a different seed: the samples genuinely change, so
	// serving stale counts would be observable as a Delta mismatch.
	cat.BuildSamples(12345)
	fresh := make([]*Estimate, len(plans))
	for i, p := range plans {
		e, err := estimateOne(p, cat, nil) // uncached ground truth, new samples
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = e
	}
	got, err := estimatePlans(plans, cat, wc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		compareEstimates(t, "epoch", i, "post-refresh", got[i], fresh[i])
	}

	// Same-seed rebuilds are still new epochs: identical data, but the
	// cache must recompute rather than trust the old namespace.
	before := cat.SampleEpoch()
	cat.BuildSamples(12345)
	if cat.SampleEpoch() == before {
		t.Fatal("BuildSamples did not advance the sample epoch")
	}
	got, err = estimatePlans(plans, cat, wc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		compareEstimates(t, "epoch", i, "same-seed refresh", got[i], fresh[i])
	}
}

// TestWorkloadCacheEviction: a tight entry budget must bound the cache
// while keeping estimates exact.
func TestWorkloadCacheEviction(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	wc := executor.NewSkeletonCache(3, 0)
	for i, p := range plans {
		ests, err := estimatePlans([]*plan.Plan{p}, cat, wc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := estimateOne(p, cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareEstimates(t, "eviction", i, "tight budget", ests[0], want)
		if wc.Len() > 3 {
			t.Fatalf("cache exceeded its budget: %d entries", wc.Len())
		}
	}
}

// TestEmptyPlanGroups: a call with no plans validates nothing and
// answers nothing — directly, and through a deprecated scheduler client,
// which makes the same call.
func TestEmptyPlanGroups(t *testing.T) {
	cat, plans := batchSetup(t, 1)
	if got, err := core.EstimatePlans(context.Background(), nil, cat, mustPrepare(t, plans[0].Query, perRun(), cat)); got != nil || err != nil {
		t.Fatalf("empty call: %v, %v", got, err)
	}
	c := NewScheduler(cat, 0, 0).Register()
	defer c.Close()
	if got, err := c.ValidatePlans(context.Background(), nil, nil); got != nil || err != nil {
		t.Fatalf("empty client request: %v, %v", got, err)
	}
}
