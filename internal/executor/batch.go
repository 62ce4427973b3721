package executor

// Multi-plan count-skeleton validation: several plans, each against the
// cache its requester validates through, one after another on the calling
// goroutine. Reuse between the plans — and between requests — comes from
// the caches they share (sub-results, build-side hash tables, the template
// index); parallelism comes from independent requests running on their own
// goroutines. A validation takes tens of microseconds on the paper's
// samples, which is why fanning one out never paid (DESIGN.md §2).

import (
	"context"
	"errors"

	"reopt/internal/plan"
	"reopt/internal/storage"
)

// BatchPlan pairs one plan of a batch with the cache its requester
// validates through. Plans of one requester share a cache; plans of
// different requesters may carry different caches, or none.
type BatchPlan struct {
	Plan  *plan.Plan
	Cache *SkeletonCache // may be nil (uncached requester)
}

// CountSkeletonBatchCfg computes the per-node output counts of several
// count-only skeletons, one counts map per plan, positionally. A plan
// that fails on its own account yields a nil map and its error in its
// perPlan slot while the remaining plans still execute (see
// CountSkeletonSteps for which failures those are); err aborts the batch.
func CountSkeletonBatchCfg(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), cfg SkelConfig) (counts []map[plan.Node]int64, perPlan []error, err error) {
	steps, perPlan, err := CountSkeletonSteps(ctx, bplans, binder, cfg)
	if err != nil {
		return nil, nil, err
	}
	counts = make([]map[plan.Node]int64, len(bplans))
	for i := range steps {
		if perPlan[i] == nil {
			counts[i] = countsByNode(steps[i])
		}
	}
	return counts, perPlan, nil
}

// CountSkeletonSteps validates each plan in turn — compiled against the
// prepared state its cache view carries (SkeletonCache.Prepared), run by
// countSteps — and returns each plan's steps with their counts filled: a
// step carries the relation set its count belongs to, which is all the
// estimator asks.
//
// A plan outside the engine's contract (ErrSkeletonUnsupported: callers
// fall back to the general executor for just that plan), one that breaches
// cfg.MemBudget (ErrMemoryBudget), overflows a count (ErrCountOverflow) or
// panics (*PanicError) fails alone: its error lands in its perPlan slot, it
// stores nothing, and the other plans' counts and cache contents are those
// of validating them without it. A cancelled ctx or a binder that cannot
// resolve a table aborts the batch via err; sub-results completed before
// the abort stay cached, nothing partial is ever stored. Counts, cache keys
// and contents, and budget verdicts equal those of CountSkeletonCfg over
// the same plans and caches one by one.
func CountSkeletonSteps(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), cfg SkelConfig) (steps [][]Step, perPlan []error, err error) {
	steps = make([][]Step, len(bplans))
	perPlan = make([]error, len(bplans))
	for i, bp := range bplans {
		st, cerr := countSteps(ctx, bp.Plan, binder, bp.Cache, cfg)
		switch {
		case cerr == nil:
			steps[i] = st
		case errors.Is(cerr, ErrSkeletonUnsupported), errors.Is(cerr, ErrMemoryBudget),
			errors.Is(cerr, ErrCountOverflow), errors.Is(cerr, ErrValidationPanic):
			perPlan[i] = cerr
		default:
			return nil, nil, cerr
		}
	}
	return steps, perPlan, nil
}
