package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// ReoptimizeMultiSeedCtx implements the §7 future-work variant: "rather
// than just returning one plan, the optimizer could return several
// candidates and let the re-optimization procedure work on each of
// them." It seeds the procedure with up to seeds distinct initial plans
// — the DP optimum plus randomized left-deep plans from different random
// seeds — runs Algorithm 1 from each, and returns the run whose final
// plan has the lowest sampled cost under its own validated statistics.
//
// It has the cancellation and the unified time budget of ReoptimizeCtx:
// one budget (Options.Timeout or the caller's deadline, whichever is
// earlier) covers the whole multi-seed procedure, seed generation
// included. Cancellation aborts with ctx.Err(); a deadline stops
// generating seeds and starting seeded runs, and returns the best result
// so far. The DP plan is always a seed, and each started run's round-1
// validation is shielded from the internal budget deadline, so a result
// always exists.
func (r *Reoptimizer) ReoptimizeMultiSeedCtx(ctx context.Context, q *sql.Query, seeds int) (*Result, error) {
	if seeds < 1 {
		seeds = 1
	}
	if err := startErr(ctx); err != nil {
		return nil, err
	}
	run, cancel := r.budgetCtx(ctx)
	defer cancel()
	initials, err := r.initialPlans(run, q, seeds)
	if err != nil {
		return nil, err
	}
	// All seeded runs validate the same query over the same samples, so
	// one validation cache serves every run: subtrees validated while
	// re-optimizing one seed — its initial candidate included — are
	// reused by the later seeds (a configured workload cache extends that
	// reuse across queries), and one prepared validation state serves
	// every seed's rounds, all from one query graph.
	g := sql.NewGraph(q)
	store := r.Opts.Cache
	if store == nil {
		store = executor.NewSkeletonCache(0, 0)
	}
	cache, err := Prepare(g, store, r.Cat, r.Opts.MemBudget)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	var best *Result
	var bestCost float64
	for _, p := range initials {
		res, err := r.reoptimize(ctx, run, g, p, cache)
		if err != nil {
			return nil, err
		}
		rp, rerr := r.Opt.Recost(q, res.Final, res.Gamma)
		switch {
		case rerr == nil && (best == nil || rp.Cost() < bestCost):
			best, bestCost = res, rp.Cost()
		case rerr != nil && best == nil:
			// Recost failed but the run itself completed: keep it at the
			// worst possible cost (any re-costable later seed replaces
			// it) so a result always exists and the budget check below
			// can stop the seeds loop even when every Recost fails.
			best, bestCost = res, math.Inf(1)
		}
		if err := run.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			break
		}
	}
	if best == nil {
		// Reachable only when the budget stopped the seeds loop before
		// the first seed completed, so classify it as such.
		return nil, fmt.Errorf("core: multi-seed re-optimization produced no result: %w", ErrBudgetExceeded)
	}
	return best, nil
}

// initialPlans generates up to n distinct starting plans: the DP plan,
// then randomized ones until n are found, 4n have been tried, or run is
// done. A cancelled run returns its error; a spent deadline keeps the
// plans generated so far.
func (r *Reoptimizer) initialPlans(run context.Context, q *sql.Query, n int) ([]*plan.Plan, error) {
	var out []*plan.Plan
	seen := map[string]bool{}
	add := func(p *plan.Plan) {
		fp := p.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			out = append(out, p)
		}
	}
	p, err := r.Opt.Optimize(q, nil)
	if err != nil {
		return nil, err
	}
	add(p)
	cfg := r.Opt.Config()
	for s := int64(1); len(out) < n && s <= int64(4*n); s++ {
		if err := run.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			break
		}
		altCfg := cfg
		altCfg.Seed = cfg.Seed + s
		altCfg.DPThreshold = 1 // force the randomized search
		alt := optimizer.New(r.Opt.Catalog(), altCfg)
		ap, err := alt.Optimize(q, nil)
		if err != nil {
			continue
		}
		add(ap)
	}
	return out, nil
}
