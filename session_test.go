package reopt_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"reopt"
)

// ottSession builds the OTT database and query mix shared by the
// Session tests: 3-, 4- and 5-table instances of the torture workload.
func ottSession(t testing.TB) (*reopt.Catalog, []*reopt.Query) {
	t.Helper()
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 5, RowsPerValue: 15})
	if err != nil {
		t.Fatal(err)
	}
	var qs []*reopt.Query
	for _, shape := range []struct{ tables, same, count int }{
		{3, 2, 2}, {4, 3, 2}, {5, 4, 2},
	} {
		batch, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
			NumTables: shape.tables, SameConstant: shape.same,
			Count: shape.count, Seed: int64(13 + shape.tables),
		})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, batch...)
	}
	return cat, qs
}

// resultKey reduces a re-optimization result to its observable identity:
// final plan, Γ, and trace shape.
func resultKey(res *reopt.ReoptResult) [4]string {
	return [4]string{
		res.Final.Fingerprint(),
		res.Final.Explain(),
		res.Gamma.Snapshot(),
		fmt.Sprintf("%d/%d/%v", res.NumPlans, len(res.Rounds), res.Converged),
	}
}

// TestGammaSnapshotGolden pins the rendered form of Γ — sorted canonical
// sets, aliases joined by "+", rows to three decimals — for one 5-table
// OTT query, as a literal.
func TestGammaSnapshotGolden(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Reoptimize(context.Background(), qs[4])
	if err != nil {
		t.Fatal(err)
	}
	const want = "{t1=20.548, t1+t2=291.067, t1+t2+t3=3668.912, t1+t2+t3+t4=69709.327, " +
		"t1+t2+t3+t4+t5=5.154, t2=14.165, t2+t3=178.554, t2+t3+t4=3392.521, " +
		"t2+t3+t4+t5=2.007, t3=12.605, t3+t4=239.496, t3+t4+t5=0.992, t4=19.000, " +
		"t4+t5=0.787, t5=18.881}"
	if got := res.Gamma.Snapshot(); got != want {
		t.Errorf("Γ snapshot of %s:\n got  %s\n want %s", qs[4], got, want)
	}
}

// TestSessionReoptimizeEquivalence: Session.Reoptimize must produce
// byte-identical plans, Γ and traces to the legacy NewOptimizer +
// NewReoptimizer entry points, with or without the shared cache, and
// whatever the deprecated worker count says.
func TestSessionReoptimizeEquivalence(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()
	for _, w := range []int{0, 1, 2, 8} {
		legacyOpt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
		legacy := reopt.NewReoptimizer(legacyOpt, cat)
		legacy.Opts.Workers = w

		plain, err := reopt.Open(cat, reopt.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		cached, err := reopt.Open(cat, reopt.WithWorkers(w), reopt.WithSharedCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			want, err := legacy.Reoptimize(q)
			if err != nil {
				t.Fatalf("workers=%d q%d legacy: %v", w, qi, err)
			}
			got, err := plain.Reoptimize(ctx, q)
			if err != nil {
				t.Fatalf("workers=%d q%d session: %v", w, qi, err)
			}
			if resultKey(got) != resultKey(want) {
				t.Errorf("workers=%d q%d: session result diverged from legacy", w, qi)
			}
			viaCache, err := cached.Reoptimize(ctx, q)
			if err != nil {
				t.Fatalf("workers=%d q%d cached session: %v", w, qi, err)
			}
			if resultKey(viaCache) != resultKey(want) {
				t.Errorf("workers=%d q%d: shared-cache session result diverged", w, qi)
			}
		}
	}
}

// TestSessionValidateEquivalence: Session.Validate over several plans
// returns, plan for plan, the Δ and sample counts of the legacy
// single-plan estimator, whatever the deprecated worker count says.
func TestSessionValidateEquivalence(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()
	for _, w := range []int{0, 1, 2, 8} {
		s, err := reopt.Open(cat, reopt.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		var plans []*reopt.Plan
		for _, q := range qs[:4] {
			p, err := s.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
		got, err := s.Validate(ctx, plans...)
		if err != nil {
			t.Fatalf("workers=%d Validate: %v", w, err)
		}
		for i := range plans {
			single, err := s.Validate(ctx, plans[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i].Sets, single[0].Sets) {
				t.Errorf("workers=%d plan %d: estimate diverged from single-plan path", w, i)
			}
		}
	}
}

// TestSessionWorkloadMatchesSequential: ReoptimizeWorkload with real
// concurrency over the shared cache must return, per query, exactly the
// result a sequential session produces.
func TestSessionWorkloadMatchesSequential(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	seq, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	var want []*reopt.ReoptResult
	for _, q := range qs {
		res, err := seq.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	par, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.ReoptimizeWorkload(ctx, qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("workload results: %d, want %d", len(got), len(qs))
	}
	for i := range qs {
		if resultKey(got[i]) != resultKey(want[i]) {
			t.Errorf("query %d: concurrent workload result diverged from sequential", i)
		}
	}
	if hits, misses := par.CacheStats(); hits+misses == 0 {
		t.Error("workload run never touched the shared cache")
	}
}

// TestSessionErrorTaxonomy: the exported sentinels classify the three
// standard failure modes via errors.Is.
func TestSessionErrorTaxonomy(t *testing.T) {
	ctx := context.Background()

	if _, err := reopt.Open(nil); err == nil {
		t.Error("Open(nil) must fail")
	}

	// ErrNoSamples: catalog without BuildSamples.
	bare := reopt.NewCatalog()
	tab := reopt.NewTable("t", reopt.NewSchema(
		reopt.Column{Name: "a", Kind: reopt.KindInt}))
	for i := int64(0); i < 100; i++ {
		tab.MustAppend(reopt.Row{reopt.Int(i % 7)})
	}
	bare.MustAddTable(tab)
	if err := bare.AnalyzeAll(reopt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := reopt.Open(bare)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Parse(`SELECT COUNT(*) FROM t WHERE t.a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reoptimize(ctx, q); !errors.Is(err, reopt.ErrNoSamples) {
		t.Errorf("Reoptimize without samples: got %v, want ErrNoSamples", err)
	}
	p, err := s.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate(ctx, p); !errors.Is(err, reopt.ErrNoSamples) {
		t.Errorf("Validate without samples: got %v, want ErrNoSamples", err)
	}

	// ErrUnsupportedPlan: the mid-query baseline rejects grouped queries.
	cat, qs := ottSession(t)
	s2, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	gq, err := s2.Parse(`SELECT COUNT(*) FROM r1 GROUP BY r1.a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.MidQuery(ctx, gq); !errors.Is(err, reopt.ErrUnsupportedPlan) {
		t.Errorf("MidQuery on GROUP BY: got %v, want ErrUnsupportedPlan", err)
	}

	// ErrBudgetExceeded: deadline spent before any plan was produced.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s2.Reoptimize(expired, qs[0]); !errors.Is(err, reopt.ErrBudgetExceeded) {
		t.Errorf("expired budget: got %v, want ErrBudgetExceeded", err)
	}
}

// TestSessionWorkloadBudgetKeepsResults: a spent deadline on the
// workload context must not discard answered queries — it returns the
// positional results with nil holes for unanswered queries and an error
// wrapping ErrBudgetExceeded. (With the deadline already expired, every
// slot is a hole; the shape of the contract is what matters.)
func TestSessionWorkloadBudgetKeepsResults(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results, err := s.ReoptimizeWorkload(expired, qs, 2)
	if !errors.Is(err, reopt.ErrBudgetExceeded) {
		t.Fatalf("spent workload budget: got %v, want ErrBudgetExceeded", err)
	}
	if len(results) != len(qs) {
		t.Fatalf("results must stay positional: got %d, want %d", len(results), len(qs))
	}
	// A plain cancellation still returns no results and ctx.Err().
	cancelled, cause := context.WithCancel(context.Background())
	cause()
	if res, err := s.ReoptimizeWorkload(cancelled, qs, 2); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled workload: res=%v err=%v", res, err)
	}
}

// TestSessionReusableAfterCancel: cancellation of any method leaves the
// session fully serviceable for the next call.
func TestSessionReusableAfterCancel(t *testing.T) {
	cat, qs := ottSession(t)
	s, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()

	if _, err := s.Reoptimize(dead, qs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Reoptimize: %v", err)
	}
	p, err := s.Optimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Validate(dead, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Validate: %v", err)
	}
	if _, err := s.Execute(dead, p, reopt.ExecOptions{CountOnly: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Execute: %v", err)
	}
	if _, err := s.ReoptimizeWorkload(dead, qs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled workload: %v", err)
	}

	// Fresh context: everything works, including through the same cache.
	res, err := s.Reoptimize(ctx, qs[0])
	if err != nil || !res.Converged {
		t.Fatalf("session not reusable after cancels: res=%v err=%v", res, err)
	}
	fresh, err := reopt.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Reoptimize(ctx, qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(want) {
		t.Error("post-cancel result diverged from a fresh session's")
	}
}

// TestSessionSharedCacheValueBudget: a value-bounded shared cache keeps
// estimates identical while holding retained materialized values within
// the budget.
func TestSessionSharedCacheValueBudget(t *testing.T) {
	cat, qs := ottSession(t)
	ctx := context.Background()

	unbounded, err := reopt.Open(cat, reopt.WithSharedCache(0))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := reopt.Open(cat, reopt.WithSharedCacheValues(500))
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		a, err := unbounded.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tight.Reoptimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(a) != resultKey(b) {
			t.Errorf("query %d: value budget changed the result", qi)
		}
	}
	cache := reopt.NewWorkloadCacheBudget(0, 500)
	shared, err := reopt.Open(cat, reopt.WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Reoptimize(ctx, qs[0]); err != nil {
		t.Fatal(err)
	}
	if v := cache.Values(); v > 500 {
		t.Errorf("retained values %d exceed the 500-value budget", v)
	}
}
