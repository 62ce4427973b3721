package executor

import (
	"context"
	"errors"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
)

// skelQueryFiltered is skelQuery with a distinguishable t1 filter
// constant, so two logically different queries share no sub-result
// above the t2 and t3 scans.
func skelQueryFiltered(limit int64) *sql.Query {
	q := skelQuery()
	q.Selections[0].Value = rel.Int(limit)
	return q
}

// planFor builds the left-deep (t1 ⋈ t2) ⋈ t3 plan for q.
func planFor(cat *catalog.Catalog, q *sql.Query) *plan.Plan {
	root := skelJoin(q, skelJoin(q, skelScan(cat, q, "t1"), skelScan(cat, q, "t2")), skelScan(cat, q, "t3"))
	return &plan.Plan{Root: root, Query: q}
}

// TestMemoryBudgetVerdictEquivalence: for one plan, the breach verdict
// at a given budget must be identical run alone or in a batch, over warm
// and cold caches — and a passing budget must return counts
// byte-identical to the unlimited run.
func TestMemoryBudgetVerdictEquivalence(t *testing.T) {
	cat := skelCatalog(t, 7, 400)
	q := skelQuery()
	p := skelPlans(cat, q)[0]
	ctx := context.Background()

	want, err := countSkeletonCfg(ctx, p, cat.Table, nil, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 100, 1000, 10_000, 1 << 40} {
		soloCold, soloErr := countSkeletonCfg(ctx, p, cat.Table, nil, SkelConfig{MemBudget: budget})
		warm := NewSkeletonCache(0, 0)
		if _, err := countSkeletonCfg(ctx, p, cat.Table, warm, SkelConfig{}); err != nil {
			t.Fatal(err)
		}
		_, warmErr := countSkeletonCfg(ctx, p, cat.Table, warm, SkelConfig{MemBudget: budget})
		if errors.Is(soloErr, ErrMemoryBudget) != errors.Is(warmErr, ErrMemoryBudget) {
			t.Fatalf("budget %d: cold verdict %v, warm verdict %v", budget, soloErr, warmErr)
		}
		for _, cache := range []*SkeletonCache{nil, warm} {
			_, perPlan, berr := countBatch(ctx,
				[]BatchPlan{prep(p, cache)}, cat.Table, SkelConfig{MemBudget: budget})
			if berr != nil {
				t.Fatalf("budget %d: batch error %v", budget, berr)
			}
			if errors.Is(soloErr, ErrMemoryBudget) != errors.Is(perPlan[0], ErrMemoryBudget) {
				t.Fatalf("budget %d warm=%v: solo verdict %v, batch verdict %v",
					budget, cache != nil, soloErr, perPlan[0])
			}
		}
		if soloErr == nil {
			if len(soloCold) != len(want) {
				t.Fatalf("budget %d: %d counts, want %d", budget, len(soloCold), len(want))
			}
			for n, c := range want {
				if soloCold[n] != c {
					t.Fatalf("budget %d: node count %d, want %d", budget, soloCold[n], c)
				}
			}
		}
	}
	// Sanity: the extremes behave as extremes.
	if _, err := countSkeletonCfg(ctx, p, cat.Table, nil, SkelConfig{MemBudget: 1}); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget 1: err = %v, want ErrMemoryBudget", err)
	}
	if !errors.Is(ErrMemoryBudget, context.DeadlineExceeded) {
		t.Fatal("ErrMemoryBudget must wrap context.DeadlineExceeded for §5.4 degradation")
	}
}

// TestMemoryBudgetIsolatedPerPlan: in one batch, a budget only the
// smaller query fits must fail exactly the larger one, leave the
// smaller one's counts byte-identical to its solo run, and poison no
// cache for later unbudgeted runs.
func TestMemoryBudgetIsolatedPerPlan(t *testing.T) {
	cat := skelCatalog(t, 11, 400)
	qSmall := skelQueryFiltered(5) // tight filter: tiny materializations
	qBig := skelQueryFiltered(95)  // loose filter: large materializations
	pSmall, pBig := planFor(cat, qSmall), planFor(cat, qBig)
	ctx := context.Background()

	wantSmall, err := countSkeletonCfg(ctx, pSmall, cat.Table, nil, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Find a budget the small plan fits and the big plan breaches.
	var budget int64
	for b := int64(2); b < 1<<40; b *= 2 {
		_, errS := countSkeletonCfg(ctx, pSmall, cat.Table, nil, SkelConfig{MemBudget: b})
		_, errB := countSkeletonCfg(ctx, pBig, cat.Table, nil, SkelConfig{MemBudget: b})
		if errS == nil && errors.Is(errB, ErrMemoryBudget) {
			budget = b
			break
		}
	}
	if budget == 0 {
		t.Fatal("no budget separates the two plans; test data broken")
	}
	cache := NewSkeletonCache(0, 0)
	counts, perPlan, err := countBatch(ctx,
		[]BatchPlan{prep(pBig, cache), prep(pSmall, cache)}, cat.Table, SkelConfig{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(perPlan[0], ErrMemoryBudget) {
		t.Fatalf("big plan: err = %v, want ErrMemoryBudget", perPlan[0])
	}
	if perPlan[1] != nil {
		t.Fatalf("small plan: err = %v, want nil", perPlan[1])
	}
	for n, c := range wantSmall {
		if counts[1][n] != c {
			t.Fatalf("small plan count diverged next to a breaching peer: %d != %d", counts[1][n], c)
		}
	}
	// The cache the breaching plan validated through must still serve a
	// later unbudgeted run correctly.
	countsBig, err := countSkeletonCfg(ctx, pBig, cat.Table, cache, SkelConfig{})
	if err != nil {
		t.Fatalf("post-breach run over same cache: %v", err)
	}
	wantBig, err := countSkeletonCfg(ctx, pBig, cat.Table, nil, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for n, c := range wantBig {
		if countsBig[n] != c {
			t.Fatalf("cache poisoned by breaching plan: %d != %d", countsBig[n], c)
		}
	}
}

// TestPanicContainedSinglePlan: a panic injected at a node boundary
// surfaces as *PanicError (matching ErrValidationPanic) with the stack
// attached, instead of unwinding into the caller.
func TestPanicContainedSinglePlan(t *testing.T) {
	cat := skelCatalog(t, 3, 400)
	p := skelPlans(cat, skelQuery())[0]
	var fi faultinject.Set
	fi.PanicAt(faultinject.SkelNode, "T:t2=t2")
	defer fi.Activate()()

	_, err := countSkeletonCfg(context.Background(), p, cat.Table, nil, SkelConfig{})
	if !errors.Is(err, ErrValidationPanic) {
		t.Fatalf("err = %v, want ErrValidationPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *PanicError", err)
	}
	if _, ok := pe.Value.(faultinject.Injected); !ok {
		t.Fatalf("panic value = %#v, want faultinject.Injected", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
}

// TestPanicIsolatedPerPlanInBatch: a panic injected into a subtree
// unique to one query fails only that query's plan, whichever side of
// the healthy plan it is validated on; the co-batched plan's counts stay
// byte-identical to its solo run, the failed plan stores nothing, and
// the shared cache stays clean for a rerun of the failed plan.
func TestPanicIsolatedPerPlanInBatch(t *testing.T) {
	cat := skelCatalog(t, 5, 400)
	qOK := skelQueryFiltered(50)
	qBad := skelQueryFiltered(51)
	pOK, pBad := planFor(cat, qOK), planFor(cat, qBad)
	ctx := context.Background()

	wantOK, err := countSkeletonCfg(ctx, pOK, cat.Table, nil, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantBad, err := countSkeletonCfg(ctx, pBad, cat.Table, nil, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}

	cache := NewSkeletonCache(0, 0)
	for _, badFirst := range []bool{false, true} {
		bplans := []BatchPlan{prep(pOK, cache), prep(pBad, cache)}
		ok, bad := 0, 1
		if badFirst {
			bplans[0], bplans[1] = bplans[1], bplans[0]
			ok, bad = 1, 0
		}
		var fi faultinject.Set
		// "t1.v < 51" appears only in qBad's signatures, from its t1 scan up.
		fi.PanicAt(faultinject.SkelNode, "t1.v < 51")
		restore := fi.Activate()
		counts, perPlan, berr := countBatch(ctx, bplans, cat.Table, SkelConfig{})
		restore()
		if berr != nil {
			t.Fatalf("batch error %v, want per-plan isolation", berr)
		}
		if perPlan[ok] != nil {
			t.Fatalf("healthy plan: err = %v, want nil", perPlan[ok])
		}
		if !errors.Is(perPlan[bad], ErrValidationPanic) || counts[bad] != nil {
			t.Fatalf("injected plan: err = %v with %d counts, want ErrValidationPanic and none", perPlan[bad], len(counts[bad]))
		}
		for n, c := range wantOK {
			if counts[ok][n] != c {
				t.Fatalf("healthy plan count diverged next to a panicking peer: %d != %d", counts[ok][n], c)
			}
		}
		for _, k := range cache.Keys() {
			if strings.Contains(k, "t1.v < 51") {
				t.Fatalf("the panicking plan stored %q", k)
			}
		}
	}

	// With the injection gone, the same cache must serve both plans.
	counts, perPlan, err := countBatch(ctx,
		[]BatchPlan{prep(pOK, cache), prep(pBad, cache)}, cat.Table, SkelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []map[plan.Node]int64{wantOK, wantBad} {
		if perPlan[i] != nil {
			t.Fatalf("rerun plan %d: %v", i, perPlan[i])
		}
		for n, c := range want {
			if counts[i][n] != c {
				t.Fatalf("rerun plan %d: count %d, want %d (cache poisoned?)", i, counts[i][n], c)
			}
		}
	}
}
