package core

import (
	"context"
	"testing"

	"reopt/internal/executor"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// countingValidator wraps the direct estimator path so tests can prove
// the round loop routed its validations through Options.Validator.
type countingValidator struct {
	r     *Reoptimizer
	calls int
	plans int
}

func (v *countingValidator) ValidatePlans(ctx context.Context, plans []*plan.Plan, cache *executor.Prepared) ([]*Estimate, error) {
	v.calls++
	v.plans += len(plans)
	return EstimatePlans(ctx, plans, v.r.Cat, cache)
}

// TestValidatorInjection: with Options.Validator set, every validation
// of the round loop (multi-seed runs included) flows through it, and
// results stay byte-identical to the direct path.
func TestValidatorInjection(t *testing.T) {
	r, qs := ottSetup(t)
	q := qs[0]

	want, err := r.Reoptimize(q)
	if err != nil {
		t.Fatal(err)
	}
	wantMS, err := r.ReoptimizeMultiSeedCtx(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}

	v := &countingValidator{r: r}
	r.Opts.Validator = v
	defer func() { r.Opts.Validator = nil }()

	got, err := r.Reoptimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if v.calls == 0 {
		t.Fatal("round loop never called the injected validator")
	}
	if got.Final.Fingerprint() != want.Final.Fingerprint() ||
		got.Gamma.Snapshot() != want.Gamma.Snapshot() ||
		len(got.Rounds) != len(want.Rounds) {
		t.Error("validated-path result diverged from the direct path")
	}

	before := v.calls
	gotMS, err := r.ReoptimizeMultiSeedCtx(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.calls <= before {
		t.Fatal("multi-seed never called the injected validator")
	}
	if gotMS.Final.Fingerprint() != wantMS.Final.Fingerprint() ||
		gotMS.Gamma.Snapshot() != wantMS.Gamma.Snapshot() {
		t.Error("multi-seed validated-path result diverged from the direct path")
	}
}

// TestValidatorUnderMemBudget: Options.MemBudget rides the request's
// validation handle, so a Validator that validates through the handle it
// is given breaches where the direct path does, and the run degrades to
// the same best-so-far Result: the same Γ, rounds and final plan. The
// budget is the largest power of two that breaches after round 1 on some
// query, so the degraded result holds validated rounds.
func TestValidatorUnderMemBudget(t *testing.T) {
	r, qs := ottSetup(t)
	run := func(q *sql.Query, budget int64, v Validator) *Result {
		t.Helper()
		r.Opts.MemBudget, r.Opts.Validator = budget, v
		defer func() { r.Opts.MemBudget, r.Opts.Validator = 0, nil }()
		res, err := r.ReoptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		return res
	}
	var q *sql.Query
	var budget int64
	var want *Result
	for _, cand := range qs {
		for b := int64(1) << 40; b >= 1 && want == nil; b /= 2 {
			if res := run(cand, b, nil); !res.Converged && len(res.Rounds) > 0 {
				q, budget, want = cand, b, res
			}
		}
		if want != nil {
			break
		}
	}
	if want == nil {
		t.Fatal("no budget breaches after round 1 on any query; test data broken")
	}

	v := &countingValidator{r: r}
	got := run(q, budget, v)
	if v.calls == 0 {
		t.Fatal("round loop never called the injected validator")
	}
	if got.Converged || got.Final.Fingerprint() != want.Final.Fingerprint() ||
		got.Gamma.Snapshot() != want.Gamma.Snapshot() || len(got.Rounds) != len(want.Rounds) {
		t.Errorf("budget %d: through the Validator converged=%v after %d rounds, final %s; direct converged=%v after %d rounds, final %s",
			budget, got.Converged, len(got.Rounds), got.Final.Fingerprint(), want.Converged, len(want.Rounds), want.Final.Fingerprint())
	}
}
