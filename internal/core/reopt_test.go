package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
)

func ottSetup(t *testing.T) (*Reoptimizer, []*sql.Query) {
	t.Helper()
	cat, err := ott.Generate(ott.Config{Seed: 7, RowsPerValue: 30})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 5, Seed: 11})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	return New(opt, cat), qs
}

func TestReoptimizeConvergesOnOTT(t *testing.T) {
	r, qs := ottSetup(t)
	for i, q := range qs {
		res, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !res.Converged {
			t.Errorf("query %d: did not converge", i)
		}
		if res.Final == nil {
			t.Fatalf("query %d: nil final plan", i)
		}
		if res.NumPlans < 1 || res.NumPlans > 10 {
			t.Errorf("query %d: implausible plan count %d", i, res.NumPlans)
		}
		if len(res.Rounds) != res.NumPlans {
			t.Errorf("query %d: %d rounds but %d distinct plans", i, len(res.Rounds), res.NumPlans)
		}
	}
}

// TestReoptimizedPlanDetectsEmptyJoins checks the paper's headline OTT
// result: the re-optimized plan evaluates an empty join early, so its
// intermediate work collapses, while answering the same (empty) query.
func TestReoptimizedPlanDetectsEmptyJoins(t *testing.T) {
	r, qs := ottSetup(t)
	for i, q := range qs {
		orig, err := r.Opt.Optimize(q, nil)
		if err != nil {
			t.Fatalf("query %d optimize: %v", i, err)
		}
		res, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d reoptimize: %v", i, err)
		}
		origRun, err := executor.Run(orig, r.Cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatalf("query %d run original: %v", i, err)
		}
		reoptRun, err := executor.Run(res.Final, r.Cat, executor.Options{CountOnly: true})
		if err != nil {
			t.Fatalf("query %d run reoptimized: %v", i, err)
		}
		if origRun.Count != reoptRun.Count {
			t.Errorf("query %d: original count %d != reoptimized count %d",
				i, origRun.Count, reoptRun.Count)
		}
		if origRun.Count != 0 {
			t.Errorf("query %d: OTT query should be empty, got %d rows", i, origRun.Count)
		}
		// Re-optimization must never be significantly worse; tiny
		// differences from equivalent-cost plan choices are fine.
		if reoptRun.Counters.Tuples > origRun.Counters.Tuples*3/2+1000 {
			t.Errorf("query %d: reoptimized plan did more work (%d tuples) than original (%d)",
				i, reoptRun.Counters.Tuples, origRun.Counters.Tuples)
		}
	}
}

// TestTheorem2ChainShape verifies Theorem 2: the transformation chain is
// all global transformations with at most one local transformation, and
// a local transformation can only be the last.
func TestTheorem2ChainShape(t *testing.T) {
	r, qs := ottSetup(t)
	for i, q := range qs {
		res, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		locals := 0
		for j, rd := range res.Rounds {
			if j == 0 {
				continue // P1 has no predecessor
			}
			if rd.Transform == plan.Local {
				locals++
				if j != len(res.Rounds)-1 {
					t.Errorf("query %d: local transformation at round %d of %d (must be last)",
						i, j+1, len(res.Rounds))
				}
			}
		}
		if locals > 1 {
			t.Errorf("query %d: %d local transformations (at most 1 allowed)", i, locals)
		}
	}
}

// TestTheorem5FinalPlanSampledCost verifies cost_s(P_n) <= cost_s(P_i)
// under the final Γ for every generated plan.
func TestTheorem5FinalPlanSampledCost(t *testing.T) {
	r, qs := ottSetup(t)
	for i, q := range qs {
		res, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !res.Converged {
			continue
		}
		finalCost := mustRecost(t, r, q, res.Final, res)
		for j, rd := range res.Rounds {
			c := mustRecost(t, r, q, rd.Plan, res)
			if finalCost > c*(1+1e-9) {
				t.Errorf("query %d: final plan cost_s %.3f exceeds round %d cost_s %.3f",
					i, finalCost, j+1, c)
			}
		}
	}
}

func mustRecost(t *testing.T, r *Reoptimizer, q *sql.Query, p *plan.Plan, res *Result) float64 {
	t.Helper()
	rp, err := r.Opt.Recost(q, p, res.Gamma)
	if err != nil {
		t.Fatalf("recost: %v", err)
	}
	return rp.Cost()
}

func TestMaxRoundsCap(t *testing.T) {
	r, qs := ottSetup(t)
	r.Opts.MaxRounds = 1
	for i, q := range qs {
		res, err := r.Reoptimize(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Rounds) > 1 {
			t.Errorf("query %d: %d rounds despite MaxRounds=1", i, len(res.Rounds))
		}
		if res.Final == nil {
			t.Errorf("query %d: nil final plan after cap", i)
		}
	}
}

func TestConservativeBlending(t *testing.T) {
	r, qs := ottSetup(t)
	r.Opts.Conservative = true
	res, err := r.Reoptimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("conservative run did not converge")
	}
	// Blended estimates must still answer the query correctly.
	run, err := executor.Run(res.Final, r.Cat, executor.Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Count != 0 {
		t.Errorf("expected empty result, got %d", run.Count)
	}
}

func TestMultiSeedReoptimize(t *testing.T) {
	r, qs := ottSetup(t)
	res, err := r.ReoptimizeMultiSeedCtx(context.Background(), qs[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("nil final plan")
	}
	run, err := executor.Run(res.Final, r.Cat, executor.Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Count != 0 {
		t.Errorf("expected empty result, got %d", run.Count)
	}
}

func TestReoptimizeRequiresSamples(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh catalog clone without samples: rebuild one.
	fresh, err := ott.Generate(ott.Config{Seed: 1, SampleRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_ = fresh
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	r := New(opt, cat)
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 3, SameConstant: 2, Count: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reoptimize(qs[0]); err != nil {
		t.Fatalf("catalog with samples should reoptimize: %v", err)
	}
}

// TestSamplingFailureInjection ensures estimator failures surface as
// errors rather than silent mis-optimization.
func TestSamplingFailureInjection(t *testing.T) {
	r, qs := ottSetup(t)
	boom := errors.New("injected sampling failure")
	r.Opts.Validator = validatorFunc(func(context.Context, []*plan.Plan, *executor.Prepared) ([]*Estimate, error) {
		return nil, boom
	})
	if _, err := r.Reoptimize(qs[0]); !errors.Is(err, boom) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	r.Opts.Validator = nil
	if _, err := r.Reoptimize(qs[0]); err != nil {
		t.Fatalf("baseline path failed after restore: %v", err)
	}
}

func TestReoptOverheadIsBounded(t *testing.T) {
	r, qs := ottSetup(t)
	res, err := r.Reoptimize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.ReoptTime <= 0 {
		t.Error("expected positive re-optimization time")
	}
	if res.ReoptTime > 10*time.Second {
		t.Errorf("re-optimization took implausibly long: %v", res.ReoptTime)
	}
}
