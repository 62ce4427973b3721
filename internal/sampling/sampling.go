// Package sampling implements the sampling-based cardinality estimator
// of Haas et al. [20] as used by the paper (§2.1): per-table Bernoulli
// samples are joined with the same join skeleton as the plan under
// validation, and the observed sample cardinalities are scaled by the
// inverse sampling fractions. One execution of the skeleton yields the
// estimate for *every* join subtree of the plan at once — the Δ of
// Algorithm 1 (GetCardinalityEstimatesBySampling).
//
// Reuse across rounds and queries goes through one store — the
// executor's SkeletonCache, which WorkloadCache names — reached through
// one per-request handle: Prepare(q, store) returns the Cache that binds
// q's prepared validation state, the store, and the catalog's current
// sample epoch (DESIGN.md §2, §11).
package sampling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
)

// ErrNoSamples marks a validation attempt against a catalog whose
// samples have not been built. Callers test with errors.Is (the root
// package re-exports it as reopt.ErrNoSamples) instead of
// string-matching; the fix is always to call Catalog.BuildSamples first.
var ErrNoSamples = errors.New("catalog has no samples (call BuildSamples)")

// Estimate is the Δ produced by validating one plan over the samples.
type Estimate struct {
	// Delta maps canonical relation-set keys (singletons included: leaf
	// selections are validated too) to estimated full-table cardinality.
	Delta map[string]float64
	// SampleRows records the raw per-key sample counts, for diagnostics
	// and for confidence weighting.
	SampleRows map[string]int64
	// Duration is the wall-clock time spent running the skeleton over
	// the samples — the re-optimization overhead the paper measures in
	// Figures 6, 9, 17 and 18.
	Duration time.Duration
	// Sets is Delta in the planner's form — one entry per validated
	// relation set, as a mask over Query.Tables positions beside its key —
	// so folding Δ into Γ parses nothing (optimizer.Planner.Merge).
	Sets []optimizer.SetRows
}

// EstimatePlan validates p's join skeleton over the catalog's samples,
// uncached and with the default config. The skeleton keeps the plan's join
// tree and all predicates but swaps every physical choice for
// sample-friendly ones (sequential scans and hash joins); physical choice
// does not affect cardinality, and samples carry no indexes.
func EstimatePlan(p *plan.Plan, cat *catalog.Catalog) (*Estimate, error) {
	ests, err := EstimatePlansCfg(context.Background(), []*plan.Plan{p}, cat, nil, ValidateConfig{})
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// ValidateConfig carries the execution knobs of the validation layer:
// the skeleton engine's own.
type ValidateConfig = executor.SkelConfig

// EstimatePlansCfg validates several plans' join skeletons over the
// catalog's samples, one after another on the calling goroutine
// (executor.CountSkeletonSteps); subtrees the plans share are computed
// once when cache — a handle from Prepare, or nil — has a store to carry
// them. The returned estimates are positional and byte-identical — Delta
// for Delta, SampleRows for SampleRows — to validating each plan alone,
// in order, against the same cache; Duration is the call's total time
// amortized equally across the plans. Plans the count-only engine cannot
// run fall back to the general executor individually, uncached.
//
// ctx reaches the engine (checked before every step) and the per-plan
// fallbacks, so a cancelled ctx aborts the call with ctx.Err()
// mid-validation; completed subtrees cached before the abort stay cached,
// nothing partial is ever stored. A plan breaching cfg.MemBudget fails the
// call with an error matching executor.ErrMemoryBudget (which wraps
// context.DeadlineExceeded, so budget-aware callers degrade it like a
// deadline); a panic inside validation surfaces as an error matching
// executor.ErrValidationPanic instead of unwinding.
func EstimatePlansCfg(ctx context.Context, plans []*plan.Plan, cat *catalog.Catalog, cache Cache, cfg ValidateConfig) ([]*Estimate, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	if faultinject.Active() {
		faultinject.Fire(faultinject.Estimate, fmt.Sprintf("plans=%d", len(plans)))
	}
	if !cat.HasSamples() {
		return nil, fmt.Errorf("sampling: %w", ErrNoSamples)
	}
	start := time.Now()
	bplans := make([]executor.BatchPlan, len(plans))
	for i, p := range plans {
		prep, err := cache.prepared(p.Query, cat)
		if err != nil {
			return nil, err
		}
		// Only join cardinalities are validated (§2): the count engine sees
		// the plan below its aggregate, physical choices and all — they
		// never reach a count.
		if agg, ok := p.Root.(*plan.AggregateNode); ok {
			p = &plan.Plan{Root: agg.Child, Query: p.Query}
		}
		bplans[i] = executor.BatchPlan{Plan: p, Prep: prep}
	}
	var steps [][]executor.Step
	var perPlan []error
	if useFastPath {
		var err error
		steps, perPlan, err = executor.CountSkeletonSteps(ctx, bplans, cat.Sample, cfg)
		if err != nil {
			return nil, fmt.Errorf("sampling: batch skeleton run: %w", err)
		}
	} else {
		// Fast path disabled (equivalence tests): every plan takes the
		// general-executor fallback below.
		steps, perPlan = make([][]executor.Step, len(plans)), make([]error, len(plans))
		for i := range perPlan {
			perPlan[i] = executor.ErrSkeletonUnsupported
		}
	}
	ests := make([]*Estimate, len(plans))
	for i, e := range perPlan {
		if e != nil {
			if !errors.Is(e, executor.ErrSkeletonUnsupported) {
				return nil, fmt.Errorf("sampling: batch skeleton run: %w", e)
			}
			if steps[i], e = volcanoSteps(ctx, bplans[i], cat); e != nil {
				return nil, fmt.Errorf("sampling: skeleton run: %w", e)
			}
		}
		ests[i] = estimateFromSteps(steps[i])
	}
	// Report the call's cost amortized equally per plan, so summing the
	// Durations reflects the call's sampling overhead.
	dur := time.Since(start) / time.Duration(len(plans))
	for _, e := range ests {
		e.Duration = dur
	}
	return ests, nil
}

// Cache is one request's handle on validation (DESIGN.md §11): the
// store it validates through and the prepared state of its query —
// signatures, cache keys, join resolutions and the per-table scale
// factors |R| / |R^s|, derived once per request instead of once per
// round. Prepare makes one; nil validates every plan uncached.
type Cache = *handle

type handle struct {
	q     *sql.Query
	store *WorkloadCache // nil: uncached

	mu    sync.Mutex
	epoch uint64             // the sample set prep was made for
	prep  *executor.Prepared // q's state over those samples
}

// Prepare returns the handle q's validations go through, over store (nil
// caches nothing; a re-optimization's private store is an unbounded
// executor.NewSkeletonCache). The handle lives as long as the request —
// make one per request — and follows the catalog's sample epoch:
// validating after a BuildSamples prepares q afresh. Plans of other
// queries validate through the same store with a state prepared for
// them alone.
func Prepare(q *sql.Query, store *WorkloadCache) Cache {
	return &handle{q: q, store: store}
}

// prepared returns the executor handle a plan of q validates through:
// the one kept for c's query, while the samples are the ones it was made
// for, otherwise a fresh one over c's store for the current samples.
func (c *handle) prepared(q *sql.Query, cat *catalog.Catalog) (*executor.Prepared, error) {
	if c == nil {
		return newPrepared(q, nil, cat)
	}
	if c.q != q {
		return newPrepared(q, c.store, cat)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch := cat.SampleEpoch(); c.prep == nil || c.epoch != epoch {
		prep, err := newPrepared(q, c.store, cat)
		if err != nil {
			return nil, err
		}
		c.prep, c.epoch = prep, epoch
	}
	return c.prep, nil
}

// newPrepared prepares q over store for the catalog's current samples,
// with the per-alias scale factors |R| / |R^s| they imply.
func newPrepared(q *sql.Query, store *WorkloadCache, cat *catalog.Catalog) (*executor.Prepared, error) {
	scales := make([]float64, len(q.Tables))
	for i, tr := range q.Tables {
		base, err := cat.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		s, err := cat.Sample(tr.Name)
		if err != nil {
			return nil, err
		}
		if sn := s.NumRows(); sn > 0 {
			scales[i] = float64(base.NumRows()) / float64(sn)
		} else {
			// Degenerate sample: fall back to the nominal ratio so the
			// estimator stays defined (the estimate for sets touching
			// this table will be 0 anyway, since the sample is empty).
			scales[i] = 1 / cat.SampleRatio()
		}
	}
	return executor.NewPrepared(q, store, cat.SampleEpoch(), scales), nil
}

// estimateFromSteps scales a skeleton run's raw sample counts into the Δ
// of Algorithm 1 — shared by the fast path and the fallback, which is
// what keeps their estimates byte-identical.
func estimateFromSteps(steps []executor.Step) *Estimate {
	est := &Estimate{
		Delta:      make(map[string]float64, len(steps)),
		SampleRows: make(map[string]int64, len(steps)),
		Sets:       make([]optimizer.SetRows, len(steps)),
	}
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
		est.Delta[st.Set.Key] = f
		est.SampleRows[st.Set.Key] = st.Count
		est.Sets[i] = optimizer.SetRows{Mask: st.Set.Mask, Key: st.Set.Key, Rows: f}
	}
	return est
}

// useFastPath gates the count-only skeleton engine; equivalence tests
// flip it to compare the fast path against the general executor.
var useFastPath = true

// volcanoSteps is the general-executor fallback for plan shapes the
// count engine does not cover (it covers every optimizer plan; the
// fallback keeps external callers with hand-built plans working): it
// runs the plan's sample-execution skeleton tuple at a time, caches
// nothing, and reports the counts under the relation sets the plan's
// nodes name. Only the explicit unsupported-shape error leads here — any
// other engine failure propagates rather than silently degrading every
// validation to the slow path.
func volcanoSteps(ctx context.Context, bp executor.BatchPlan, cat *catalog.Catalog) ([]executor.Step, error) {
	sp := &plan.Plan{Root: rewrite(bp.Plan.Root), Query: bp.Plan.Query}
	res, err := executor.RunCtx(ctx, sp, cat, executor.Options{CountOnly: true, Binder: cat.Sample})
	if err != nil {
		return nil, err
	}
	steps, err := bp.Prep.Outline(sp)
	if err != nil {
		return nil, err
	}
	for i := range steps {
		steps[i].Count = res.NodeRows[steps[i].Node()]
	}
	return steps, nil
}

// rewrite converts a physical plan into its sample-execution skeleton
// for the general executor. Aggregates are stripped: only join cardinalities are validated (§2 —
// extending validation to GROUP BY outputs via distinct-value estimation
// is the paper's future work; see EstimateGroupByCardinality).
func rewrite(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.ScanNode:
		c := *t
		c.Access = plan.SeqScan
		c.IndexColumn = ""
		return &c
	case *plan.JoinNode:
		c := *t
		c.Kind = plan.HashJoin
		c.Left = rewrite(t.Left)
		c.Right = rewrite(t.Right)
		return &c
	case *plan.AggregateNode:
		return rewrite(t.Child)
	default:
		return n
	}
}

// RelStdErr returns the approximate relative standard error of the
// estimate for key: the Haas et al. estimator's error shrinks like
// 1/√k in the number k of sample rows observed for the set, so with k
// observations the relative standard error is ≈ 1/√k; sets the sample
// never witnessed report 1 (total uncertainty). This quantifies the
// §7 future-work point on uncertainty-aware estimates ([41]).
func (e *Estimate) RelStdErr(key string) float64 {
	k := e.SampleRows[key]
	if k <= 0 {
		return 1
	}
	return 1 / math.Sqrt(float64(k))
}

// ConfidenceWeight returns a weight in (0,1) expressing how much trust a
// sampled estimate deserves given the raw number k of sample rows
// observed for the set: with k observations the relative standard error
// of the Haas et al. estimator shrinks like 1/sqrt(k), so the weight
// (k+1)/(k+1+c) rises toward 1 for well-observed sets and stays low when
// the sample barely witnessed the set. The Laplace-style +1 is
// deliberate, not plain k/(k+c): even at k=0 the estimator still says
// something — the resolution-limit floor of EstimatePlan (half of one
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
