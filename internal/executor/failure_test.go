package executor

import (
	"context"
	"errors"
	"testing"

	"reopt/internal/faultinject"
)

// TestMemoryBudgetVerdictEquivalence: for one plan, the breach verdict
// at a given budget must be identical over warm and cold caches — and a
// passing budget must return counts byte-identical to the unlimited run.
func TestMemoryBudgetVerdictEquivalence(t *testing.T) {
	cat := skelCatalog(t, 7, 400)
	q := skelQuery()
	p := skelPlans(cat, q)[0]
	ctx := context.Background()

	want, err := countSkeletonCfg(ctx, p, cat.Table, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 100, 1000, 10_000, 1 << 40} {
		soloCold, soloErr := countSkeletonCfg(ctx, p, cat.Table, nil, budget)
		warm := NewSkeletonCache(0, 0)
		if _, err := countSkeletonCfg(ctx, p, cat.Table, warm, 0); err != nil {
			t.Fatal(err)
		}
		_, warmErr := countSkeletonCfg(ctx, p, cat.Table, warm, budget)
		if errors.Is(soloErr, ErrMemoryBudget) != errors.Is(warmErr, ErrMemoryBudget) {
			t.Fatalf("budget %d: cold verdict %v, warm verdict %v", budget, soloErr, warmErr)
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
	if _, err := countSkeletonCfg(ctx, p, cat.Table, nil, 1); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budget 1: err = %v, want ErrMemoryBudget", err)
	}
	if !errors.Is(ErrMemoryBudget, context.DeadlineExceeded) {
		t.Fatal("ErrMemoryBudget must wrap context.DeadlineExceeded for §5.4 degradation")
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

	_, err := countSkeletonCfg(context.Background(), p, cat.Table, nil, 0)
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
