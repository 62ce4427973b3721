package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/sampling"
)

// TestCancelMidRoundReturnsCtxErr: a cancellation landing inside a
// validation (here: injected before the estimator runs) must surface as
// ctx.Err(), and the Reoptimizer must remain fully usable afterwards.
func TestCancelMidRoundReturnsCtxErr(t *testing.T) {
	r, qs := ottSetup(t)
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	estimatePlansFn = func(c context.Context, ps []*plan.Plan, cc *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
		calls++
		if calls == 2 {
			cancel() // lands "mid-round": the engine sees it mid-validation
		}
		return orig(c, ps, cc, cache)
	}
	_, err := r.ReoptimizeCtx(ctx, qs[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel mid-round: got %v, want context.Canceled", err)
	}

	// The same Reoptimizer with a fresh context converges normally: the
	// abort poisoned nothing.
	estimatePlansFn = orig
	res, err := r.ReoptimizeCtx(context.Background(), qs[0])
	if err != nil || !res.Converged {
		t.Fatalf("reuse after cancel: res=%+v err=%v", res, err)
	}
}

// TestCancelMultiSeedReturnsCtxErr: cancellation inside a seeded run
// aborts the whole multi-seed procedure with ctx.Err().
func TestCancelMultiSeedReturnsCtxErr(t *testing.T) {
	r, qs := ottSetup(t)
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	estimatePlansFn = func(c context.Context, ps []*plan.Plan, cc *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		return orig(c, ps, cc, cache)
	}
	if _, err := r.ReoptimizeMultiSeedCtx(ctx, qs[0], 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel multi-seed: got %v, want context.Canceled", err)
	}
}

// TestCtxDeadlineMatchesLegacyTimeout: a deadline on the caller's
// context must produce the same best-so-far plan selection as the
// legacy Options.Timeout, when the budget expires at the same point of
// the procedure. The injected estimator sleeps past the budget *after*
// each validation completes, so both mechanisms observe exhaustion at
// the between-rounds check — the only place the legacy wall-clock test
// ever looked.
func TestCtxDeadlineMatchesLegacyTimeout(t *testing.T) {
	const budget = 20 * time.Millisecond
	run := func(useCtx bool) *Result {
		r, qs := ottSetup(t)
		orig := estimatePlansFn
		defer func() { estimatePlansFn = orig }()
		estimatePlansFn = func(c context.Context, ps []*plan.Plan, cc *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
			ests, err := orig(context.Background(), ps, cc, cache)
			time.Sleep(2 * budget) // spend the budget after the round's validation
			return ests, err
		}
		var res *Result
		var err error
		if useCtx {
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			res, err = r.ReoptimizeCtx(ctx, qs[0])
		} else {
			r.Opts.Timeout = budget
			res, err = r.Reoptimize(qs[0])
		}
		if err != nil {
			t.Fatalf("useCtx=%v: %v", useCtx, err)
		}
		return res
	}
	legacy := run(false)
	viaCtx := run(true)
	if legacy.Final.Fingerprint() != viaCtx.Final.Fingerprint() {
		t.Errorf("best-so-far selection diverged:\nlegacy %s\nctx    %s",
			legacy.Final.Fingerprint(), viaCtx.Final.Fingerprint())
	}
	if len(legacy.Rounds) != len(viaCtx.Rounds) {
		t.Errorf("round counts diverged: legacy %d, ctx %d", len(legacy.Rounds), len(viaCtx.Rounds))
	}
	if legacy.Converged || viaCtx.Converged {
		t.Error("budget-stopped runs must not report convergence")
	}
	if legacy.Gamma.Snapshot() != viaCtx.Gamma.Snapshot() {
		t.Error("validated statistics diverged between the two budget mechanisms")
	}
}

// TestBudgetExceededSentinel: a deadline that expired before any plan
// could be produced surfaces as ErrBudgetExceeded (which also satisfies
// errors.Is(err, context.DeadlineExceeded)); plain cancellation stays
// context.Canceled.
func TestBudgetExceededSentinel(t *testing.T) {
	r, qs := ottSetup(t)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := r.ReoptimizeCtx(expired, qs[0])
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrBudgetExceeded must wrap context.DeadlineExceeded: %v", err)
	}
	if _, err := r.ReoptimizeMultiSeedCtx(expired, qs[0], 2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired deadline (multi-seed): got %v, want ErrBudgetExceeded", err)
	}

	cancelled, cause := context.WithCancel(context.Background())
	cause()
	if _, err := r.ReoptimizeCtx(cancelled, qs[0]); !errors.Is(err, context.Canceled) || errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("cancelled ctx: got %v, want bare context.Canceled", err)
	}
}

// TestTimeoutShieldsFirstRound: even with a budget that has effectively
// already expired, Options.Timeout yields one fully validated round —
// the legacy guarantee TestTimeoutCap pins, restated against the ctx
// implementation with a validation that takes real time.
func TestTimeoutShieldsFirstRound(t *testing.T) {
	r, qs := ottSetup(t)
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()
	estimatePlansFn = func(c context.Context, ps []*plan.Plan, cc *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
		time.Sleep(time.Millisecond)
		return orig(c, ps, cc, cache)
	}
	r.Opts.Timeout = time.Nanosecond
	res, err := r.Reoptimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds under expired budget: %d, want exactly 1", len(res.Rounds))
	}
	if res.Rounds[0].GammaAdded == 0 {
		t.Fatal("the shielded first round must have validated (Γ empty)")
	}
}
