package sampling

import (
	"context"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
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
func perRun() *WorkloadCache { return executor.NewSkeletonCache(0, 0) }

// estimatePlans validates plans through store (nil: uncached) with the
// default config, each plan prepared for its own query.
func estimatePlans(plans []*plan.Plan, cat *catalog.Catalog, store *WorkloadCache) ([]*Estimate, error) {
	return EstimatePlansCfg(context.Background(), plans, cat, Prepare(nil, store), ValidateConfig{})
}

// estimateOne is estimatePlans over the one plan.
func estimateOne(p *plan.Plan, cat *catalog.Catalog, cache *WorkloadCache) (*Estimate, error) {
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
		e, err := EstimatePlan(p, cat)
		if err != nil {
			t.Fatalf("plan %d sequential: %v", i, err)
		}
		want[i] = e
	}

	caches := map[string]*WorkloadCache{
		"nil":      nil,
		"perrun":   perRun(),
		"workload": NewWorkloadCache(0),
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

// TestEstimatePlansFallsBackPerPlan: a plan the count engine cannot run
// must take the Volcano fallback without dragging the rest of the call
// with it — whichever cache it validates through, or none.
func TestEstimatePlansFallsBackPerPlan(t *testing.T) {
	cat, plans := batchSetup(t, 2)
	badQ := *plans[0].Query
	badQ.Joins = nil
	bad := &plan.Plan{Root: plans[0].Root, Query: &badQ}
	mixed := []*plan.Plan{plans[0], bad, plans[1]}
	want := make([]*Estimate, len(mixed))
	for i, p := range mixed {
		var err error
		if want[i], err = EstimatePlan(p, cat); err != nil {
			t.Fatalf("plan %d sequential: %v", i, err)
		}
	}
	got, err := estimatePlans(mixed, cat, perRun())
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed {
		compareEstimates(t, "fallback", i, "mixed batch", got[i], want[i])
	}

	// The same three plans as three calls, each through its own cache: a
	// workload-cache holder, an uncached one holding the unsupported plan,
	// a per-run one.
	caches := []Cache{Prepare(nil, NewWorkloadCache(0)), nil, Prepare(mixed[2].Query, perRun())}
	for i, cache := range caches {
		ests, err := EstimatePlansCfg(context.Background(), mixed[i:i+1], cat, cache, ValidateConfig{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		compareEstimates(t, "fallback", i, "one call per cache", ests[0], want[i])
	}
}

// TestWorkloadCacheReusesAcrossQueries: validating a workload of similar
// queries twice against one WorkloadCache must serve the second pass
// from the cache (hits recorded, no growth) with identical estimates.
func TestWorkloadCacheReusesAcrossQueries(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	wc := NewWorkloadCache(0)

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
	wc := NewWorkloadCache(0)
	if _, err := estimatePlans(plans, cat, wc); err != nil {
		t.Fatal(err)
	}

	// Rebuild with a different seed: the samples genuinely change, so
	// serving stale counts would be observable as a Delta mismatch.
	cat.BuildSamples(12345)
	fresh := make([]*Estimate, len(plans))
	for i, p := range plans {
		e, err := EstimatePlan(p, cat) // uncached ground truth, new samples
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
	wc := NewWorkloadCache(3)
	for i, p := range plans {
		ests, err := estimatePlans([]*plan.Plan{p}, cat, wc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EstimatePlan(p, cat)
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
	cat, _ := batchSetup(t, 1)
	if got, err := EstimatePlansCfg(context.Background(), nil, cat, Prepare(nil, perRun()), ValidateConfig{}); got != nil || err != nil {
		t.Fatalf("empty call: %v, %v", got, err)
	}
	c := NewScheduler(cat, 0, 0).Register()
	defer c.Close()
	if got, err := c.ValidatePlans(context.Background(), nil, nil); got != nil || err != nil {
		t.Fatalf("empty client request: %v, %v", got, err)
	}
}
