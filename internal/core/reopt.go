// Package core implements the paper's contribution: the sampling-based
// iterative query re-optimization procedure (Algorithm 1). Each round
// asks the optimizer for a plan under the current validated statistics
// Γ, stops if the plan repeats, and otherwise validates the new plan's
// join skeleton over the samples, folding the refined cardinalities Δ
// back into Γ.
//
// Validation (GetCardinalityEstimatesBySampling) is this package's too,
// the estimator of Haas et al. [20] the paper uses (§2.1): Prepare binds
// a request's handle (DESIGN.md §11), and EstimatePlans counts each
// plan's join skeleton over the samples — every join subtree in one run
// — and scales the counts by the inverse sampling fractions into Δ.
// Options.Validator is the one seam that substitutes it.
//
// The package also records the full per-round trace — transformation
// classification (local/global, Theorem 2), coverage (Theorem 1),
// sampled costs (Theorems 5 and 6) — and implements the practical
// variants discussed in §5.4 and §7: round and time caps with
// best-so-far selection, conservative estimate blending, and multi-seed
// re-optimization.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// ErrBudgetExceeded reports that the re-optimization budget — an
// Options.Timeout or a deadline on the caller's context — expired
// before the procedure could produce any plan at all. Once a plan
// exists, budget exhaustion is not an error: the procedure returns the
// best plan generated so far (§5.4), with Result.Converged false. The
// sentinel therefore only surfaces when a query's budget was spent
// before its first optimizer call finished, e.g. while it sat queued
// behind other queries of a workload. It wraps
// context.DeadlineExceeded, so errors.Is works against either.
var ErrBudgetExceeded = fmt.Errorf("re-optimization budget exhausted before a plan was produced: %w", context.DeadlineExceeded)

// Options tune the re-optimization procedure. The zero value runs plain
// Algorithm 1 to convergence.
type Options struct {
	// MaxRounds caps optimizer invocations; 0 means run to convergence.
	// When the cap triggers, the best plan generated so far under
	// sampled costs is returned (§5.4 early-stop strategy).
	MaxRounds int
	// Timeout caps total re-optimization wall time; 0 means none. Like
	// MaxRounds, hitting it returns the sampled-cost-best plan so far.
	// It is implemented as a context deadline (ReoptimizeCtx documents
	// the exact semantics), so it also aborts a validation in flight —
	// except the first round's, which always completes so that a result
	// exists.
	Timeout time.Duration
	// Conservative blends each sampled estimate with the optimizer's
	// statistics-based estimate, weighted by a sample-size confidence
	// (§7 future-work variant). Off, sampled estimates are accepted
	// unconditionally, as in the paper's experiments.
	Conservative bool
	// Workers once bounded the parallelism inside one validation.
	//
	// Deprecated: Workers no longer selects anything — a validation runs
	// on the goroutine that asked for it, whatever the value — and is
	// kept only because bench/ sets it.
	Workers int
	// SampleShards once split each table's sample into shards for
	// validation.
	//
	// Deprecated: samples are no longer sharded; SampleShards does nothing
	// and bench/ is its last caller.
	SampleShards int
	// Cache optionally supplies a workload-level validation cache
	// shared across queries: repeated or similar query instances reuse
	// each other's validation counts (entries are LRU-bounded and
	// invalidated by the catalog's sample epoch). nil keeps the default
	// cache scoped to one re-optimization. Reuse never changes
	// estimates, only when they are computed.
	Cache *executor.SkeletonCache
	// Validator optionally reroutes every validation the round loop
	// issues — every seed's candidate plans included — through a
	// substitute, e.g. a wrapper that times or counts validations. nil
	// validates directly via EstimatePlans. A Validator must
	// return estimates byte-identical to the direct path (caching may
	// change when counts are computed, never their values).
	Validator Validator
	// MemBudget softly caps the values (materialized boundary-column
	// cells plus hash-table entries) any single validation may hold; 0
	// means unlimited. A breach is the space analogue of Timeout: the
	// offending validation fails with an error wrapping
	// context.DeadlineExceeded, so the round loop degrades to the best
	// validated plan so far (§5.4 extended from time to space) instead
	// of failing the query. The budget rides the request's validation
	// handle, so a Validator validating through that handle applies it
	// too.
	MemBudget int64
	// TemplateSharing once indexed cached sample scans by template.
	//
	// Deprecated: there is no template sharing; TemplateSharing does
	// nothing and bench/ is its last caller.
	TemplateSharing bool
}

// Validator is the seam the round loop submits candidate-plan
// validations through. Implementations run on the caller's goroutine,
// are positional (estimate i belongs to plans[i]) and byte-identical to
// EstimatePlans over the same cache, the request's handle (Prepare),
// which carries the samples and the memory budget.
type Validator interface {
	ValidatePlans(ctx context.Context, plans []*plan.Plan, cache *executor.Prepared) ([]*Estimate, error)
}

// Round records one iteration of Algorithm 1.
type Round struct {
	// Plan is P_i, re-costed under the Γ that produced it.
	Plan *plan.Plan
	// Transform classifies P_i against P_{i-1} (Theorem 2 chain).
	Transform plan.TransformKind
	// CoveredByPrevious reports Definition 2 coverage of P_i by
	// {P_1..P_{i-1}} — when true, Theorem 1 predicts termination next
	// round.
	CoveredByPrevious bool
	// GammaAdded is how many new relation sets this round's validation
	// added to Γ (0 for the terminal round, which skips validation).
	GammaAdded int
	// SampledCost is the plan's cost re-estimated under Γ *after* this
	// round's validation merged (cost_s in the paper's notation).
	SampledCost float64
	// OptimizeTime and SamplingTime split the round's overhead.
	OptimizeTime time.Duration
	SamplingTime time.Duration
}

// Result is the outcome of re-optimizing one query.
type Result struct {
	// Final is the plan the procedure settled on (the fixed point when
	// Converged, otherwise the sampled-cost-best plan generated).
	Final *plan.Plan
	// Rounds is the P_1..P_n trace. The terminal optimizer call that
	// merely re-produces P_n is not appended as an extra round; it is
	// reflected in Converged.
	Rounds []Round
	// NumPlans is the number of distinct plans generated — the series
	// reported in the paper's Figures 5, 8, 16 and 20.
	NumPlans int
	// Converged reports whether the loop reached its fixed point (as
	// opposed to a round/time cap).
	Converged bool
	// ReoptTime is the total overhead: all sampling runs plus all
	// optimizer invocations after the first. The paper's "execution +
	// re-optimization" series adds this to the final plan's run time.
	ReoptTime time.Duration
	// Gamma is the final validated-statistics store.
	Gamma *optimizer.Gamma
}

// Reoptimizer runs Algorithm 1 against one optimizer and catalog.
type Reoptimizer struct {
	Opt  *optimizer.Optimizer
	Cat  *catalog.Catalog
	Opts Options
}

// New returns a Reoptimizer with default options.
func New(opt *optimizer.Optimizer, cat *catalog.Catalog) *Reoptimizer {
	return &Reoptimizer{Opt: opt, Cat: cat}
}

// Reoptimize runs Algorithm 1 on q and returns the full trace.
func (r *Reoptimizer) Reoptimize(q *sql.Query) (*Result, error) {
	return r.ReoptimizeCtx(context.Background(), q)
}

// ReoptimizeCtx is Reoptimize with cancellation and a unified time
// budget. Options.Timeout (when set) is applied as a context deadline
// layered under ctx, and the two kinds of context termination get
// distinct semantics:
//
//   - cancellation (context.Canceled) means the caller abandoned the
//     work: the procedure aborts — between rounds, or mid-validation
//     inside the skeleton engine — and returns ctx.Err();
//   - a deadline (context.DeadlineExceeded, whether from Options.Timeout
//     or the caller's context.WithTimeout) means the budget is spent:
//     the procedure stops and returns the best plan generated so far
//     under sampled costs (§5.4), exactly as the legacy wall-clock
//     Options.Timeout check did. Only when the deadline fires before
//     any plan exists does it surface as an error (ErrBudgetExceeded).
//
// Round 1's validation is shielded from the internal Options.Timeout
// deadline (though not from the caller's own), so a Timeout run always
// returns at least one fully validated round. Runs whose context is
// never cancelled are byte-identical to Reoptimize.
func (r *Reoptimizer) ReoptimizeCtx(ctx context.Context, q *sql.Query) (*Result, error) {
	if err := startErr(ctx); err != nil {
		return nil, err
	}
	run, cancel := r.budgetCtx(ctx)
	defer cancel()
	// Cross-round validation cache: later rounds reuse earlier rounds'
	// sub-results instead of re-running the skeleton from scratch, in a
	// private store that dies with the run unless Options.Cache supplies
	// a workload-level one. The handle is prepared once, beside the
	// planner, from the one query graph both read.
	g := sql.NewGraph(q)
	store := r.Opts.Cache
	if store == nil {
		store = executor.NewSkeletonCache(0, 0)
	}
	cache, err := Prepare(g, store, r.Cat, r.Opts.MemBudget)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return r.reoptimize(ctx, run, g, nil, cache)
}

// startErr reports a ctx that is done before any work starts: a spent
// deadline as ErrBudgetExceeded (no plan exists yet), a cancellation as
// itself.
func startErr(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("core: %w", ErrBudgetExceeded)
	}
	return err
}

// budgetCtx derives the budget context: Options.Timeout as a deadline
// under ctx (a caller deadline that is already earlier wins).
func (r *Reoptimizer) budgetCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.Opts.Timeout > 0 {
		return context.WithTimeout(ctx, r.Opts.Timeout)
	}
	return context.WithCancel(ctx)
}

// reoptimize is the Algorithm 1 loop over the query of g, validating
// through cache, a handle prepared from the same graph. outer is
// the caller's context (round 1 validates under it, shielded from the
// internal budget); run carries the budget deadline for everything else.
// A non-nil seed is P_1, handed in instead of planned (the multi-seed
// variant): it costs no optimizer time.
func (r *Reoptimizer) reoptimize(outer, run context.Context, g *sql.Graph, seed *plan.Plan, cache *executor.Prepared) (*Result, error) {
	// One planner serves every round: the query is resolved against the
	// catalog once, and each round re-prices the whole DP table under
	// the Γ the previous rounds' Δ grew (DESIGN §10: tracking what a Δ
	// invalidated bought no measurable time). Its set-up is charged to
	// round 1's optimizer time, when round 1 plans.
	t0 := time.Now()
	pl, err := r.Opt.Prepare(g, nil)
	if err != nil {
		return nil, fmt.Errorf("core: round 1: %w", err)
	}
	lp := &loop{pl: pl, res: &Result{Gamma: pl.Gamma()}, seen: map[string]bool{}}
	res := lp.res

	for i := 1; ; i++ {
		p, optTime := seed, time.Duration(0)
		if i > 1 || seed == nil {
			if p, err = pl.Plan(); err != nil {
				return nil, fmt.Errorf("core: round %d: %w", i, err)
			}
			optTime = time.Since(t0)
		}
		if i > 1 {
			res.ReoptTime += optTime
		}

		// Termination test of Algorithm 1 (lines 6-8).
		if lp.prev != nil && p.Fingerprint() == lp.prev.Fingerprint() {
			res.Converged = true
			break
		}

		// Round 1 validates under the caller's context only, shielded
		// from the internal budget deadline, so a Timeout run always has
		// one validated round to return.
		vctx := run
		if i == 1 {
			vctx = outer
		}
		if err := r.validateInto(vctx, lp, p, cache, optTime); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			if errors.Is(err, context.DeadlineExceeded) {
				// Budget spent mid-validation: drop the incomplete round
				// and return the best plan so far. If not even round 1
				// completed, the un-validated P_1 is still the answer —
				// it is what plain optimization would have returned.
				if len(res.Rounds) == 0 {
					res.Final = p
					res.NumPlans = 1
					return res, nil
				}
				break
			}
			return nil, fmt.Errorf("core: round %d: %w", i, err)
		}

		if r.Opts.MaxRounds > 0 && i >= r.Opts.MaxRounds {
			break
		}
		// Unified budget check (the legacy wall-clock Timeout test):
		// deadline exhaustion stops with best-so-far, cancellation is an
		// error.
		if err := run.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			break
		}
		t0 = time.Now()
	}

	res.Final = r.pickFinal(lp)
	return res, nil
}

// loop is the state one run of Algorithm 1 carries from round to round.
type loop struct {
	pl   *optimizer.Planner
	res  *Result
	prev *plan.Plan
	// seen holds the fingerprints of P_1..P_{i-1} (NumPlans counts the
	// distinct ones); validated is the union of their join sets, as
	// masks — what Definition 2 coverage is tested against.
	seen      map[string]bool
	validated []uint64
}

// validateInto runs lines 9-10 of Algorithm 1 for the candidate p —
// Δ ← sampling; Γ ← Γ ∪ Δ — and appends the round record. p validates
// through Options.Validator when one is configured and EstimatePlans
// otherwise. optTime is the optimizer time already spent producing p
// this round (zero for a handed-in seed plan); sampling time is wall
// time around the estimator call.
func (r *Reoptimizer) validateInto(ctx context.Context, lp *loop, p *plan.Plan, cache *executor.Prepared, optTime time.Duration) error {
	round := Round{
		Plan:              p,
		Transform:         plan.Classify(lp.prev, p),
		CoveredByPrevious: plan.Covered(p, lp.validated),
		OptimizeTime:      optTime,
	}
	t1 := time.Now()
	var ests []*Estimate
	var err error
	if v := r.Opts.Validator; v != nil {
		ests, err = v.ValidatePlans(ctx, []*plan.Plan{p}, cache)
	} else {
		ests, err = EstimatePlans(ctx, []*plan.Plan{p}, r.Cat, cache)
	}
	if err != nil {
		return err
	}
	round.SamplingTime = time.Since(t1)
	lp.res.ReoptTime += round.SamplingTime

	delta := ests[0].Sets
	if r.Opts.Conservative {
		delta = blend(lp.pl, ests[0])
	}
	round.GammaAdded = lp.pl.Merge(delta)

	// Re-cost P_i under the merged Γ for the trace (cost_s).
	if rp, err := lp.pl.Recost(p); err == nil {
		round.SampledCost = rp.Cost()
		round.Plan = rp
	}
	lp.res.Rounds = append(lp.res.Rounds, round)
	if !lp.seen[p.Fingerprint()] {
		lp.seen[p.Fingerprint()] = true
		lp.res.NumPlans++
	}
	for _, s := range p.JoinSets() {
		if !slices.Contains(lp.validated, s) {
			lp.validated = append(lp.validated, s)
		}
	}
	lp.prev = p
	return nil
}

// pickFinal returns the converged fixed point, or — after an early stop —
// the generated plan with the lowest sampled cost (§5.4: "return the
// best plan among the plans generated so far, based on their cost
// estimates using refined cardinality estimates from sampling").
func (r *Reoptimizer) pickFinal(lp *loop) *plan.Plan {
	res := lp.res
	if res.Converged || len(res.Rounds) == 0 {
		return lp.prev
	}
	best := res.Rounds[0].Plan
	bestCost := -1.0
	for _, rd := range res.Rounds {
		rp, err := lp.pl.Recost(rd.Plan)
		if err != nil {
			continue
		}
		if bestCost < 0 || rp.Cost() < bestCost {
			bestCost = rp.Cost()
			best = rp
		}
	}
	return best
}

// blend applies conservative acceptance: each sampled estimate is mixed
// with the statistics-based estimate, weighted by how many sample rows
// witnessed the set.
func blend(pl *optimizer.Planner, est *Estimate) []optimizer.SetRows {
	out := slices.Clone(est.Sets)
	for i := range out {
		w := ConfidenceWeight(out[i].SampleRows)
		out[i].Rows = w*out[i].Rows + (1-w)*pl.StatCardinality(out[i].Mask)
	}
	return out
}
