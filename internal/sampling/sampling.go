// Package sampling implements the sampling-based cardinality estimator
// of Haas et al. [20] as used by the paper (§2.1): per-table Bernoulli
// samples are joined with the same join skeleton as the plan under
// validation, and the observed sample cardinalities are scaled by the
// inverse sampling fractions. One execution of the skeleton yields the
// estimate for *every* join subtree of the plan at once — the Δ of
// Algorithm 1 (GetCardinalityEstimatesBySampling).
//
// Reuse across rounds and queries goes through one store, the
// executor's SkeletonCache, reached through one per-request handle,
// executor.Prepared, which Cache names: Prepare(g, store, cat, budget)
// binds the query graph g's validation to the store, to the catalog's
// current samples — their tables, scale factors and epoch — and to the
// request's memory budget, and EstimatePlans runs each plan through it
// with Prepared.Count (DESIGN.md §2, §11).
package sampling

import (
	"context"
	"errors"
	"fmt"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// ErrNoSamples marks a validation attempt against a catalog whose
// samples have not been built. Callers test with errors.Is (the root
// package re-exports it as reopt.ErrNoSamples) instead of
// string-matching; the fix is always to call Catalog.BuildSamples first.
var ErrNoSamples = errors.New("catalog has no samples (call BuildSamples)")

// Estimate is the Δ produced by validating one plan over the samples.
type Estimate struct {
	// Sets holds one entry per validated relation set (singletons
	// included: leaf selections are validated too), as a mask over
	// Query.Tables positions: its estimated full-table cardinality and
	// the raw sample count behind it. Folding Δ into Γ parses nothing
	// (optimizer.Planner.Merge).
	Sets []optimizer.SetRows
	// Duration is the wall-clock time spent running the skeleton over
	// the samples — the re-optimization overhead the paper measures in
	// Figures 6, 9, 17 and 18.
	Duration time.Duration
}

// EstimatePlans validates plans' join skeletons over the catalog's
// samples, one after another on the calling goroutine
// (executor.Prepared.Count). The skeleton keeps each plan's join tree and
// all predicates; its physical choices (access paths, join methods) never
// reach a count, and an aggregate root is peeled off — only join
// cardinalities are validated. A plan validates through cache — a handle
// from Prepare, or nil — when the handle serves its query over the
// current samples, otherwise through a handle made for the call over the
// same store and under the same memory budget (uncached and unlimited for
// a nil cache); subtrees the plans share are computed once when there is
// a store to carry them. The returned estimates are positional and their
// Sets byte-identical to validating each plan alone, in order, against
// the same cache; Duration is the call's total time amortized equally
// across the plans.
//
// ctx reaches the engine (checked before every step), so a cancelled ctx
// aborts the call with ctx.Err() mid-validation; completed subtrees cached
// before the abort stay cached, nothing partial is ever stored. A nil
// plan, or one without a query or root, fails the call with
// executor.ErrUnsupportedPlan before anything executes, and one no handle
// can be made for (Prepare) fails it when its turn comes. A plan that fails
// on its own account fails the call with the first such error; it stores
// nothing partial, and the plans beside it are still validated, so they
// leave the cache as they would alone. One outside the engine's contract (a
// hand-built plan that does not apply exactly the query's predicates,
// say) matches executor.ErrUnsupportedPlan; one breaching the handle's
// memory budget matches executor.ErrMemoryBudget (which wraps
// context.DeadlineExceeded, so budget-aware callers degrade it like a
// deadline); one whose count overflows matches executor.ErrCountOverflow;
// a panic inside validation matches executor.ErrValidationPanic instead
// of unwinding.
func EstimatePlans(ctx context.Context, plans []*plan.Plan, cat *catalog.Catalog, cache Cache) ([]*Estimate, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	if faultinject.Active() {
		faultinject.Fire(faultinject.Estimate, fmt.Sprintf("plans=%d", len(plans)))
	}
	for i, p := range plans {
		if p == nil || p.Query == nil || p.Root == nil {
			return nil, fmt.Errorf("sampling: plan %d has no query or root: %w", i, executor.ErrUnsupportedPlan)
		}
	}
	start := time.Now()
	epoch := cat.SampleEpoch()
	var other Cache // the call's handle for plans cache does not serve
	ests := make([]*Estimate, len(plans))
	var failed error
	for i, p := range plans {
		prep := cache
		if !prep.Serves(p.Query, epoch) {
			if !other.Serves(p.Query, epoch) {
				var err error
				if other, err = Prepare(sql.NewGraph(p.Query), cache.Cache(), cat, cache.MemBudget()); err != nil {
					return nil, err
				}
			}
			prep = other
		}
		root := p.Root
		if agg, ok := root.(*plan.AggregateNode); ok {
			root = agg.Child
		}
		steps, err := prep.Count(ctx, root)
		switch {
		case err == nil:
			ests[i] = estimateFromSteps(steps)
		case errors.Is(err, executor.ErrUnsupportedPlan), errors.Is(err, executor.ErrMemoryBudget),
			errors.Is(err, executor.ErrCountOverflow), errors.Is(err, executor.ErrValidationPanic):
			if failed == nil {
				failed = err
			}
		default:
			return nil, fmt.Errorf("sampling: skeleton run: %w", err)
		}
	}
	if failed != nil {
		return nil, fmt.Errorf("sampling: skeleton run: %w", failed)
	}
	// Report the call's cost amortized equally per plan, so summing the
	// Durations reflects the call's sampling overhead.
	dur := time.Since(start) / time.Duration(len(plans))
	for _, e := range ests {
		e.Duration = dur
	}
	return ests, nil
}

// Cache is one request's handle on validation (DESIGN.md §11): the store
// it validates through, the samples it is bound to — their tables, epoch
// and per-table scale factors |R| / |R^s| — the memory budget and the
// prepared state of its query — signatures, cache keys, join resolutions —
// derived once per request instead of once per round. Prepare makes one;
// nil validates every plan uncached.
type Cache = *executor.Prepared

// Prepare returns the handle the validations of g's query go through,
// over store (nil caches nothing; a re-optimization's private store is an
// unbounded executor.NewSkeletonCache), bound to the catalog's current
// samples — their tables, their epoch and the scale factors they imply —
// and to memBudget, the values one plan's validation may materialize
// (<= 0: unlimited). g is the request's query graph, the one its planner
// reads. The handle lives as long as the request — make one per request.
// A validation after a BuildSamples, or of another query's plan, goes
// through a handle made for the call over the same store. Prepare fails
// with ErrNoSamples when the catalog has no samples yet, with the
// catalog's error for a table it lacks, and with an error matching
// executor.ErrUnsupportedPlan when g.Err is set.
func Prepare(g *sql.Graph, store *executor.SkeletonCache, cat *catalog.Catalog, memBudget int64) (Cache, error) {
	if !cat.HasSamples() {
		return nil, fmt.Errorf("sampling: %w", ErrNoSamples)
	}
	tables := make([]*storage.Table, len(g.Rels))
	scales := make([]float64, len(g.Rels))
	for i := range g.Rels { // none when g.Err refused the FROM list
		tr := g.Query.Tables[i]
		base, err := cat.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		s, err := cat.Sample(tr.Name)
		if err != nil {
			return nil, err
		}
		tables[i] = s
		if sn := s.NumRows(); sn > 0 {
			scales[i] = float64(base.NumRows()) / float64(sn)
		} else {
			// Degenerate sample: fall back to the nominal ratio so the
			// estimator stays defined (the estimate for sets touching
			// this table will be 0 anyway, since the sample is empty).
			scales[i] = 1 / cat.SampleRatio()
		}
	}
	return executor.NewPrepared(g, store, cat.SampleEpoch(), tables, scales, memBudget)
}

// estimateFromSteps scales a skeleton run's raw sample counts into the Δ
// of Algorithm 1: each step's count times its scale product, under the
// relation set the step names.
func estimateFromSteps(steps []executor.Step) *Estimate {
	est := &Estimate{Sets: make([]optimizer.SetRows, len(steps))}
	for i := range steps {
		st := &steps[i]
		f := float64(st.Count) * st.Scale
		// Resolution-limit floor: a sample that observed zero rows for a
		// set cannot certify a cardinality below ~half of what one
		// sample row represents. Without the floor, one unlucky sample
		// (probability (1-ratio)^|σ(R)| per leaf) writes a hard zero
		// into Γ, every plan built on that set estimates as free, and
		// the optimizer can converge to a catastrophic plan — the
		// uncertainty concern the paper raises in §7. Non-zero counts
		// are unaffected (count·scale ≥ scale > floor).
		if st.Count == 0 {
			f = 0.5 * st.Scale
		}
		est.Sets[i] = optimizer.SetRows{Mask: st.Set.Mask, Key: st.Set.Key, Rows: f, SampleRows: st.Count}
	}
	return est
}

// ConfidenceWeight returns a weight in (0,1) expressing how much trust a
// sampled estimate deserves given the raw number k of sample rows
// observed for the set: with k observations the relative standard error
// of the Haas et al. estimator shrinks like 1/sqrt(k), so the weight
// (k+1)/(k+1+c) rises toward 1 for well-observed sets and stays low when
// the sample barely witnessed the set. The Laplace-style +1 is
// deliberate, not plain k/(k+c): even at k=0 the estimator still says
// something — the resolution-limit floor of EstimatePlans (half of one
// sample row's worth) — so an unwitnessed set keeps a small non-zero
// weight, 1/(1+c), rather than being wholly overridden by the
// optimizer's statistics-based estimate. With c = 4 that is 0.2, so
// core.blend still favors history (weight < 1/2) until the sample has
// actually witnessed the set a few times (weight reaches 1/2 at
// k = c-1 = 3).
// Used by the conservative blending extension (§7 future work: "consider
// the uncertainty of the cardinality estimates returned by sampling").
func ConfidenceWeight(sampleRows int64) float64 {
	const c = 4
	k := float64(sampleRows)
	return (k + 1) / (k + 1 + c)
}
