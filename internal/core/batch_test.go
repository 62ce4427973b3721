package core

import (
	"context"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// workloadStore returns a workload's store: the one store, bounded as a
// session's shared cache is by default.
func workloadStore() *executor.SkeletonCache { return executor.NewSkeletonCache(4096, 0) }

// mustPrepare is Prepare over q's graph, failing t on an error.
func mustPrepare(t testing.TB, q *sql.Query, store *executor.SkeletonCache, cat *catalog.Catalog, budget int64) *executor.Prepared {
	t.Helper()
	cache, err := Prepare(sql.NewGraph(q), store, cat, budget)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// validatorFunc is a Validator made of a function: the tests' way to
// substitute validation through Options.Validator.
type validatorFunc func(ctx context.Context, ps []*plan.Plan, cache *executor.Prepared) ([]*Estimate, error)

func (f validatorFunc) ValidatePlans(ctx context.Context, ps []*plan.Plan, cache *executor.Prepared) ([]*Estimate, error) {
	return f(ctx, ps, cache)
}

// sequentialEstimator ignores batching and caching: every plan's
// skeleton over cat's samples re-executes from scratch, one plan at a
// time — the reference behavior the batched path must be observably
// identical to.
func sequentialEstimator(cat *catalog.Catalog) Validator {
	return validatorFunc(func(ctx context.Context, ps []*plan.Plan, _ *executor.Prepared) ([]*Estimate, error) {
		out := make([]*Estimate, len(ps))
		for i, p := range ps {
			ests, err := EstimatePlans(ctx, []*plan.Plan{p}, cat, nil)
			if err != nil {
				return nil, err
			}
			out[i] = ests[0]
		}
		return out, nil
	})
}

// compareResults asserts two re-optimization runs are observably
// identical: same Γ byte for byte, same trace shape, same final plan.
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if g, w := got.Gamma.Snapshot(), want.Gamma.Snapshot(); g != w {
		t.Errorf("%s: Γ diverged\ngot:  %s\nwant: %s", label, g, w)
	}
	if got.NumPlans != want.NumPlans || len(got.Rounds) != len(want.Rounds) || got.Converged != want.Converged {
		t.Errorf("%s: trace diverged: %d plans/%d rounds/conv=%v vs %d plans/%d rounds/conv=%v",
			label, got.NumPlans, len(got.Rounds), got.Converged,
			want.NumPlans, len(want.Rounds), want.Converged)
	}
	if got.Final.Fingerprint() != want.Final.Fingerprint() {
		t.Errorf("%s: final plan diverged", label)
	}
	for ri := range got.Rounds {
		if ri < len(want.Rounds) && got.Rounds[ri].GammaAdded != want.Rounds[ri].GammaAdded {
			t.Errorf("%s round %d: GammaAdded %d != %d",
				label, ri, got.Rounds[ri].GammaAdded, want.Rounds[ri].GammaAdded)
		}
	}
}

// TestMultiSeedBatchedIdentical: multi-seed re-optimization with the
// cross-seed cache and prepared state must be observably identical to
// validating every plan solo and uncached — caching may only change
// when counts are computed, never their values.
func TestMultiSeedBatchedIdentical(t *testing.T) {
	r, qs := ottSetup(t)
	for qi, q := range qs[:3] {
		r.Opts.Validator = nil // cached production path
		batched, err := r.ReoptimizeMultiSeedCtx(context.Background(), q, 3)
		if err != nil {
			t.Fatalf("query %d batched: %v", qi, err)
		}
		r.Opts.Validator = sequentialEstimator(r.Cat)
		solo, err := r.ReoptimizeMultiSeedCtx(context.Background(), q, 3)
		if err != nil {
			t.Fatalf("query %d solo: %v", qi, err)
		}
		compareResults(t, "multiseed", batched, solo)
	}
}

// TestWorkloadCacheReoptimizeIdentical: running a workload of queries
// through one Reoptimizer with a shared WorkloadCache must produce, for
// every query, exactly the result of a cold per-query run — cross-query
// reuse is invisible except in time.
func TestWorkloadCacheReoptimizeIdentical(t *testing.T) {
	r, qs := ottSetup(t)
	cached := New(r.Opt, r.Cat)
	cached.Opts.Cache = workloadStore()

	for qi, q := range qs {
		cold, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d cold: %v", qi, err)
		}
		warm, err := cached.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d warm: %v", qi, err)
		}
		compareResults(t, "workload-cache", warm, cold)
	}
	if cached.Opts.Cache.Len() == 0 {
		t.Error("workload cache recorded nothing")
	}
	if hits, _ := cached.Opts.Cache.Stats(); hits == 0 {
		t.Error("workload cache recorded no hits across the workload")
	}
}

// TestReoptimizeValidatesCandidateAlone: the round loop submits the
// candidate plan alone — the previous round's plan is fully cached, so
// riding along it would add lookups and no work — and the deprecated
// Options.Workers selects nothing: Γ is the same at 0, 1, 2 and 8.
func TestReoptimizeValidatesCandidateAlone(t *testing.T) {
	r, qs := ottSetup(t)
	r.Opts.Validator = validatorFunc(func(ctx context.Context, ps []*plan.Plan, cache *executor.Prepared) ([]*Estimate, error) {
		if len(ps) != 1 {
			t.Errorf("workers=%d: a round validated %d plans, want the candidate alone", r.Opts.Workers, len(ps))
		}
		return EstimatePlans(ctx, ps, r.Cat, cache)
	})
	for qi, q := range qs {
		var snaps [4]*Result
		for i, workers := range []int{0, 1, 2, 8} {
			r.Opts.Workers = workers
			res, err := r.Reoptimize(q)
			if err != nil {
				t.Fatalf("query %d workers=%d: %v", qi, workers, err)
			}
			snaps[i] = res
		}
		for _, snap := range snaps[1:] {
			compareResults(t, "workers vs 0", snap, snaps[0])
		}
	}
}
