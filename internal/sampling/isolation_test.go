package sampling

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// One validation call holds plans that may fail on their own account.
// These tests hold it to the rule that such a plan fails the call and
// stores nothing, while the plans beside it — of its query or of others —
// count and cache what they do alone (checkIsolated).

// optimized returns the optimizer's plan for src over cat.
func optimized(t *testing.T, cat *catalog.Catalog, src string) *plan.Plan {
	t.Helper()
	q, err := sql.Parse(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.New(cat, optimizer.DefaultConfig()).Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMemoryBudgetIsolatedPerPlan: under a budget the filtered chains
// fit and an unfiltered join breaches, the breaching plan fails the call
// with ErrMemoryBudget wherever it sits among them, stores nothing, and
// leaves their counts and cache entries as they are alone; the store it
// failed on then serves it, unbudgeted, what it counts uncached.
func TestMemoryBudgetIsolatedPerPlan(t *testing.T) {
	cat, good := batchSetup(t, 3)
	big := optimized(t, cat, "SELECT COUNT(*) FROM r1, r2 WHERE r1.b = r2.b")
	fits := func(p *plan.Plan, b int64) error {
		_, err := estimateWith([]*plan.Plan{p}, cat, nil, b)
		return err
	}
	var budget int64
	for b := int64(2); b < 1<<40 && budget == 0; b *= 2 {
		budget = b
		for _, p := range good {
			if fits(p, b) != nil {
				budget = 0
			}
		}
	}
	if err := fits(big, budget); !errors.Is(err, executor.ErrMemoryBudget) {
		t.Fatalf("budget %d fits every chain and the unfiltered join too (%v); test data broken", budget, err)
	}
	checkIsolated(t, "memory budget", cat, good, big, budget, executor.ErrMemoryBudget)

	store := perRun()
	if _, err := estimateWith([]*plan.Plan{good[0], big}, cat, store, budget); !errors.Is(err, executor.ErrMemoryBudget) {
		t.Fatalf("breaching call: %v", err)
	}
	got, err := estimateOne(big, cat, store)
	if err != nil {
		t.Fatalf("unbudgeted run after the breach: %v", err)
	}
	want, err := estimateOne(big, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "memory budget", 0, "unbudgeted after the breach", got, want)
}

// TestPanicIsolatedPerPlanInBatch: a panic injected into a subtree only
// one query has fails that query's plan with ErrValidationPanic
// wherever it sits among the plans of other queries, stores nothing, and
// leaves their counts and cache entries as they are alone; with the
// injection gone, the store serves the plan what it counts uncached.
func TestPanicIsolatedPerPlanInBatch(t *testing.T) {
	cat, good := batchSetup(t, 3)
	bad := optimized(t, cat, "SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a = 2 AND r2.a = 2 AND r3.a = 7 AND r1.b = r2.b AND r2.b = r3.b")
	var fi faultinject.Set
	// The filter is in the signature of bad's root, which its first
	// step enters: the panic comes before anything is stored, on every
	// validation of bad.
	fi.PanicAt(faultinject.SkelNode, "F:r3.a = 7").Count = 0
	restore := fi.Activate()
	for _, p := range good {
		if _, err := estimateOne(p, cat, nil); err != nil {
			restore()
			t.Fatalf("the injection reaches a plan of another query (%v); test data broken", err)
		}
	}
	checkIsolated(t, "panic", cat, good, bad, 0, executor.ErrValidationPanic)
	store := perRun()
	_, err := estimatePlans([]*plan.Plan{good[0], bad}, cat, store)
	restore()
	if !errors.Is(err, executor.ErrValidationPanic) {
		t.Fatalf("panicking call: %v", err)
	}

	got, err := estimateOne(bad, cat, store)
	if err != nil {
		t.Fatalf("rerun without the injection: %v", err)
	}
	want, err := estimateOne(bad, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "panic", 0, "rerun without the injection", got, want)
}

// TestEstimatePlansPerPlanCaches: requesters validating concurrently,
// each through a handle over a private store of its own or none, get
// the estimates of solo runs, and each store ends up holding exactly
// what a solo run leaves it — nothing of another requester's — and
// replays its plan without recomputing. One call validating every
// plan through one store agrees, and leaves the union of those stores.
func TestEstimatePlansPerPlanCaches(t *testing.T) {
	cat, plans := batchSetup(t, 4)
	solo := make([]*Estimate, len(plans))
	soloStores := make([]*executor.SkeletonCache, len(plans))
	union := map[string]bool{}
	for i, p := range plans {
		soloStores[i] = perRun()
		e, err := estimateOne(p, cat, soloStores[i])
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = e
		for _, k := range soloStores[i].Keys() {
			union[k] = true
		}
	}

	stores := make([]*executor.SkeletonCache, len(plans))
	for i := range plans {
		if i != 1 { // the second requester validates uncached
			stores[i] = perRun()
		}
	}
	got := make([]*Estimate, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = estimateOne(p, cat, stores[i])
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if errs[i] != nil {
			t.Fatalf("requester %d: %v", i, errs[i])
		}
		compareEstimates(t, "per-plan caches", i, "concurrent requester", got[i], solo[i])
		c := stores[i]
		if c == nil {
			continue
		}
		if !slices.Equal(c.Keys(), soloStores[i].Keys()) || c.Values() != soloStores[i].Values() {
			t.Errorf("requester %d: store holds %d keys / %d values, a solo run's %d / %d",
				i, c.Len(), c.Values(), soloStores[i].Len(), soloStores[i].Values())
		}
		hits0, miss0 := c.Stats()
		if _, err := estimateOne(p, cat, c); err != nil {
			t.Fatalf("requester %d warm replay: %v", i, err)
		}
		if hits1, miss1 := c.Stats(); hits1 <= hits0 || miss1 != miss0 {
			t.Errorf("requester %d: warm replay went %d/%d -> %d/%d hits/misses", i, hits0, miss0, hits1, miss1)
		}
	}

	store := perRun()
	ests, err := estimatePlans(plans, cat, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		compareEstimates(t, "per-plan caches", i, "one call", ests[i], solo[i])
	}
	if want := slices.Sorted(maps.Keys(union)); !slices.Equal(store.Keys(), want) {
		t.Errorf("one call left %d keys, the solo stores %d between them", store.Len(), len(want))
	}
}
