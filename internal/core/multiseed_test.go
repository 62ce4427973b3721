package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sampling"
	"reopt/internal/sql"
)

// TestMultiSeedHonorsTimeout: Options.Timeout must bound the whole
// multi-seed procedure — both the rounds loop inside each seeded run
// and the seeds loop itself. With a validation that takes longer than
// the budget, at most the first seed's first two rounds can validate
// before every loop observes the exhausted budget and stops.
func TestMultiSeedHonorsTimeout(t *testing.T) {
	r, qs := ottSetup(t)
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()
	calls := 0
	estimatePlansFn = func(ctx context.Context, ps []*plan.Plan, c *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
		calls++
		time.Sleep(5 * time.Millisecond)
		return orig(ctx, ps, c, cache)
	}
	r.Opts.Timeout = time.Millisecond
	res, err := r.ReoptimizeMultiSeedCtx(context.Background(), qs[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("timeout run must still return a best-so-far plan")
	}
	// Seed 1 validates its P_1 and at most one more round before the
	// rounds loop sees the spent budget; the seeds loop must then stop
	// instead of running the remaining seeds.
	if calls > 2 {
		t.Errorf("timeout ignored: %d validation calls ran, want at most 2", calls)
	}
}

// TestMultiSeedOverheadAccounting: the seeded path must account
// overhead exactly like Reoptimize — optimizer time recorded per round
// (rounds >= 2; the handed-in P_1 cost no optimizer call), sampling
// time measured as wall time, and ReoptTime covering both plus the
// terminal optimizer call that detects convergence.
func TestMultiSeedOverheadAccounting(t *testing.T) {
	r, qs := ottSetup(t)
	res, err := r.ReoptimizeMultiSeedCtx(context.Background(), qs[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	var accounted time.Duration
	for i, rd := range res.Rounds {
		if rd.SamplingTime <= 0 {
			t.Errorf("round %d: SamplingTime not recorded", i+1)
		}
		accounted += rd.SamplingTime
		if i == 0 {
			if rd.OptimizeTime != 0 {
				t.Errorf("round 1 is the seed plan; OptimizeTime should be 0, got %v", rd.OptimizeTime)
			}
			continue
		}
		if rd.OptimizeTime <= 0 {
			t.Errorf("round %d: OptimizeTime not recorded", i+1)
		}
		accounted += rd.OptimizeTime
	}
	if res.ReoptTime < accounted {
		t.Errorf("ReoptTime %v < per-round accounted overhead %v", res.ReoptTime, accounted)
	}
	// The loop always ends with an optimizer call (terminal or capped),
	// so total overhead strictly exceeds the sampling share alone — the
	// seeded path used to drop optimizer time entirely.
	var samplingOnly time.Duration
	for _, rd := range res.Rounds {
		samplingOnly += rd.SamplingTime
	}
	if res.ReoptTime <= samplingOnly {
		t.Errorf("ReoptTime %v does not include optimizer time (sampling alone is %v)",
			res.ReoptTime, samplingOnly)
	}
}

// TestBlendFavorsHistoryForUnwitnessedSets: conservative blending of a
// set the sample never witnessed (k=0) must keep a small but non-zero
// trust in the sampled floor — closer to the optimizer's
// statistics-based estimate than to the sampled value, yet not equal to
// pure history (ConfidenceWeight's Laplace-style +1).
func TestBlendFavorsHistoryForUnwitnessedSets(t *testing.T) {
	r, qs := ottSetup(t)
	q := qs[0]
	aliases := []string{q.Tables[0].Alias}
	key := plan.CanonicalSet(aliases)
	hist, err := r.Opt.EstimateCardinality(q, aliases)
	if err != nil {
		t.Fatal(err)
	}
	sampled := hist + 1000
	est := &sampling.Estimate{Sets: []optimizer.SetRows{{Mask: 1, Key: key, Rows: sampled, SampleRows: 0}}}
	pl, err := r.Opt.Prepare(sql.NewGraph(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	blended := blend(pl, est)[0].Rows
	if math.Abs(blended-hist) >= math.Abs(blended-sampled) {
		t.Errorf("unwitnessed set must blend toward history: hist=%v sampled=%v blended=%v",
			hist, sampled, blended)
	}
	if blended == hist {
		t.Errorf("unwitnessed set must retain non-zero sampled weight, got pure history %v", hist)
	}
}

// TestSeededRunAcceptsHandBuiltSeed: a seed that was not built by the
// planner (no memoized fingerprint or join sets) must classify and cover
// exactly like the planner's own copy of the same tree.
func TestSeededRunAcceptsHandBuiltSeed(t *testing.T) {
	r, qs := ottSetup(t)
	for _, q := range qs {
		seed, err := r.Opt.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		want, err := r.reoptimize(ctx, ctx, sql.NewGraph(q), seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.reoptimize(ctx, ctx, sql.NewGraph(q), &plan.Plan{Root: seed.Root, Query: q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rounds) != len(want.Rounds) || got.NumPlans != want.NumPlans || got.Final.Fingerprint() != want.Final.Fingerprint() {
			t.Fatalf("hand-built seed: %d rounds, %d plans, final %s; planner's seed: %d rounds, %d plans, final %s",
				len(got.Rounds), got.NumPlans, got.Final.Fingerprint(), len(want.Rounds), want.NumPlans, want.Final.Fingerprint())
		}
		for i, rd := range got.Rounds {
			w := want.Rounds[i]
			if rd.Transform != w.Transform || rd.CoveredByPrevious != w.CoveredByPrevious || rd.GammaAdded != w.GammaAdded {
				t.Errorf("round %d: transform %v covered %v added %d, want %v %v %d",
					i+1, rd.Transform, rd.CoveredByPrevious, rd.GammaAdded, w.Transform, w.CoveredByPrevious, w.GammaAdded)
			}
		}
	}
}

// multiSeedWithin runs ReoptimizeMultiSeedCtx on another goroutine and
// fails the test if it has not returned within limit.
func multiSeedWithin(t *testing.T, r *Reoptimizer, ctx context.Context, q *sql.Query, seeds int, limit time.Duration) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := r.ReoptimizeMultiSeedCtx(ctx, q, seeds)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(limit):
		t.Fatalf("multi-seed with %d seeds still running after %v", seeds, limit)
		return nil, nil
	}
}

// TestMultiSeedBudgetBoundsSeedGeneration: generating the seeds counts
// against the budget. A deadline stops generation and keeps the seeds
// found so far — the DP plan at least — so a result still comes back;
// a cancellation stops it with context.Canceled. Either way the call
// returns promptly however many seeds were asked for.
func TestMultiSeedBudgetBoundsSeedGeneration(t *testing.T) {
	r, qs := ottSetup(t)
	r.Opts.Timeout = 5 * time.Millisecond
	res, err := multiSeedWithin(t, r, context.Background(), qs[0], 1<<20, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("a spent budget must still return a plan")
	}

	r.Opts.Timeout = 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	if _, err := multiSeedWithin(t, r, ctx, qs[0], 1<<20, 2*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled multi-seed returned %v, want context.Canceled", err)
	}
}
