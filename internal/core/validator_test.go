package core

import (
	"context"
	"testing"

	"reopt/internal/plan"
	"reopt/internal/sampling"
)

// countingValidator wraps the direct estimator path so tests can prove
// the round loop routed its validations through Options.Validator.
type countingValidator struct {
	r     *Reoptimizer
	calls int
	plans int
}

func (v *countingValidator) ValidatePlans(ctx context.Context, plans []*plan.Plan, cache sampling.Cache) ([]*sampling.Estimate, error) {
	v.calls++
	v.plans += len(plans)
	return sampling.EstimatePlansCfg(ctx, plans, v.r.Cat, cache, sampling.ValidateConfig{})
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
