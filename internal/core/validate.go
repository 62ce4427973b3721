package core

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
// all predicates; its physical choices never reach a count, and an
// aggregate root is peeled off. A plan validates through cache — a handle
// from Prepare, or nil — when the handle serves its query over the
// current samples, otherwise through a handle made for the call over the
// same store and under the same memory budget (uncached and unlimited for
// a nil cache), so subtrees the plans share are computed once when there
// is a store. The estimates are positional, their Sets byte-identical to
// validating each plan alone, in order, against the same cache, and
// Duration is the call's total time amortized equally across the plans.
//
// ctx reaches the engine (checked before every step): a cancelled ctx
// aborts the call with ctx.Err(), and what was cached before stays. A nil
// plan, or one without a query or root, fails the call with
// executor.ErrUnsupportedPlan before anything executes; one no handle can
// be made for (Prepare) fails it when its turn comes. A plan that fails
// on its own account fails the call with the first such error, stores
// nothing partial, and the plans beside it are still validated, so they
// leave the cache as they would alone: one outside the engine's contract
// (a hand-built plan that does not apply exactly the query's predicates,
// say) matches executor.ErrUnsupportedPlan; one breaching the handle's
// memory budget executor.ErrMemoryBudget (which wraps
// context.DeadlineExceeded, so budget-aware callers degrade it like a
// deadline); an overflowing count executor.ErrCountOverflow; a panic
// executor.ErrValidationPanic instead of unwinding.
func EstimatePlans(ctx context.Context, plans []*plan.Plan, cat *catalog.Catalog, cache *executor.Prepared) ([]*Estimate, error) {
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
	var other *executor.Prepared // the call's handle for plans cache does not serve
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

// Prepare returns the request's handle on validation (DESIGN.md §11)
// for g's query, the graph its planner reads: over store (nil caches
// nothing), bound to the catalog's current samples — their tables, epoch
// and scale factors |R| / |R^s| — and to memBudget, the values one plan's
// validation may materialize (<= 0: unlimited). The query's signatures,
// cache keys and join resolutions are derived once per handle, so make
// one per request. Prepare fails with ErrNoSamples when the catalog has
// no samples yet, with the catalog's error for a table it lacks, and
// with g.Err when the graph refused its query.
func Prepare(g *sql.Graph, store *executor.SkeletonCache, cat *catalog.Catalog, memBudget int64) (*executor.Prepared, error) {
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

// ConfidenceWeight is the trust, in (0,1), that a sampled estimate
// deserves given the k sample rows that witnessed its set, for the
// conservative blending extension (§7 future work: "consider the
// uncertainty of the cardinality estimates returned by sampling"). The
// estimator's relative standard error shrinks like 1/sqrt(k), so
// (k+1)/(k+1+c) rises toward 1 for well-observed sets. The Laplace-style
// +1 is deliberate, not plain k/(k+c): at k=0 the estimate is still the
// zero-count floor (half of one sample row's worth), so an unwitnessed
// set keeps weight 1/(1+c) = 0.2 instead of being wholly overridden by
// the statistics-based estimate, and blend favors history (weight < 1/2)
// until the sample has witnessed the set c-1 = 3 times.
func ConfidenceWeight(sampleRows int64) float64 {
	const c = 4
	k := float64(sampleRows)
	return (k + 1) / (k + 1 + c)
}
