// Package sampling implements the sampling-based cardinality estimator
// of Haas et al. [20] as used by the paper (§2.1): per-table Bernoulli
// samples are joined with the same join skeleton as the plan under
// validation, and the observed sample cardinalities are scaled by the
// inverse sampling fractions. One execution of the skeleton yields the
// estimate for *every* join subtree of the plan at once — the Δ of
// Algorithm 1 (GetCardinalityEstimatesBySampling).
package sampling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
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
}

// Cache is the contract shared by the two validation-cache scopes the
// estimator accepts: the per-re-optimization ValidationCache and the
// cross-query WorkloadCache. The interface is sealed (the skeleton
// accessor is unexported) because cache keying is entangled with the
// engine's signature scheme.
type Cache interface {
	// Len returns the number of cached subtree results (diagnostics).
	Len() int
	// skeleton returns the executor-level cache to run against,
	// namespaced for the catalog's current sample set.
	skeleton(cat *catalog.Catalog) *executor.SkeletonCache
}

// ValidationCache carries skeleton sub-results and build-side hash
// tables across the validation rounds of one re-optimization, so a round
// whose plan shares join subtrees with previously validated plans reuses
// their sample counts instead of re-executing them. A cache must only be
// shared between validations of the same query over the same samples;
// for a cache that outlives one re-optimization, use WorkloadCache.
type ValidationCache struct {
	skel *executor.SkeletonCache
}

// NewValidationCache returns an empty cache.
func NewValidationCache() *ValidationCache {
	return &ValidationCache{skel: executor.NewSkeletonCache()}
}

// Len returns the number of cached subtree results (diagnostics).
func (c *ValidationCache) Len() int {
	if c == nil {
		return 0
	}
	return c.skel.Len()
}

// skeleton implements Cache. The per-re-optimization scope never
// outlives a sample set, so no epoch namespacing is needed.
func (c *ValidationCache) skeleton(*catalog.Catalog) *executor.SkeletonCache {
	if c == nil {
		return nil
	}
	return c.skel
}

// EstimatePlan validates p's join skeleton over the catalog's samples.
// The skeleton keeps the plan's join tree and all predicates but swaps
// every physical choice for sample-friendly ones (sequential scans and
// hash joins); physical choice does not affect cardinality, and samples
// carry no indexes.
func EstimatePlan(p *plan.Plan, cat *catalog.Catalog) (*Estimate, error) {
	return EstimatePlanCached(p, cat, nil)
}

// EstimatePlanCached is EstimatePlan with an optional cross-round cache.
func EstimatePlanCached(p *plan.Plan, cat *catalog.Catalog, cache *ValidationCache) (*Estimate, error) {
	return EstimatePlanCtx(context.Background(), p, cat, cache, 0)
}

// EstimatePlanWorkers is EstimatePlanCached with an explicit worker
// count for the skeleton engine's partitioned scan/probe loops:
// workers <= 0 selects GOMAXPROCS, 1 forces sequential execution. The
// estimate is byte-identical at every setting (the engine merges
// per-partition outputs in partition order); the knob exists so tests
// can pin determinism and callers can bound validation parallelism.
func EstimatePlanWorkers(p *plan.Plan, cat *catalog.Catalog, cache *ValidationCache, workers int) (*Estimate, error) {
	return EstimatePlanCtx(context.Background(), p, cat, cache, workers)
}

// EstimatePlanCtx is EstimatePlanWorkers with cancellation: the context
// is threaded into the skeleton engine (checked between subtrees) and
// the general-executor fallback (checked in its pull loop), so a
// cancelled ctx aborts the validation with ctx.Err(). Uncancelled runs
// are byte-identical to EstimatePlanWorkers.
func EstimatePlanCtx(ctx context.Context, p *plan.Plan, cat *catalog.Catalog, cache *ValidationCache, workers int) (*Estimate, error) {
	return EstimatePlanCfg(ctx, p, cat, cache, ValidateConfig{Workers: workers})
}

// ValidateConfig carries the execution knobs of the validation layer,
// mirroring executor.SkelConfig. Every knob is performance-only: the
// estimates (Delta and SampleRows) are byte-identical at every setting.
type ValidateConfig struct {
	// Workers caps the skeleton engines' parallelism; <= 0 selects
	// GOMAXPROCS, 1 forces sequential execution.
	Workers int
	// Shards splits every sample scan into contiguous word-aligned
	// partitions whose partial results merge in shard
	// order; <= 1 keeps the monolithic layout bit-for-bit.
	Shards int
	// MemBudget softly caps the values each plan's validation may
	// materialize; <= 0 means unlimited.
	MemBudget int64
	// Templates shares sample scans between query instances of the
	// same constant-stripped template (one union scan per template,
	// refined per constant) and indexes cached scans by template so
	// near-miss constants reuse them. Counts stay byte-identical at
	// either setting. Off by default.
	Templates bool
}

// skel converts the config to the executor layer's form.
func (c ValidateConfig) skel() executor.SkelConfig {
	return executor.SkelConfig{Workers: c.Workers, Shards: c.Shards, MemBudget: c.MemBudget, Templates: c.Templates}
}

// EstimatePlanCfg is EstimatePlanCtx with the full validation config,
// including the sample shard count.
func EstimatePlanCfg(ctx context.Context, p *plan.Plan, cat *catalog.Catalog, cache *ValidationCache, cfg ValidateConfig) (*Estimate, error) {
	if !cat.HasSamples() {
		return nil, fmt.Errorf("sampling: %w", ErrNoSamples)
	}
	start := time.Now()
	skeleton := rewrite(p.Root)
	sp := &plan.Plan{Root: skeleton, Query: p.Query}
	nodeRows, err := skeletonCounts(ctx, sp, cat, cache.skeleton(cat), cfg)
	if err != nil {
		return nil, fmt.Errorf("sampling: skeleton run: %w", err)
	}
	est, err := estimateFromCounts(p, skeleton, cat, nodeRows)
	if err != nil {
		return nil, err
	}
	est.Duration = time.Since(start)
	return est, nil
}

// EstimatePlans validates several plans' join skeletons over the
// catalog's samples as one batch: subtrees shared between the plans are
// executed once, each table's scan filters are compiled once, and the
// combined work of every plan partitions across workers even when the
// individual samples are too small to fan out alone (see
// executor.CountSkeletonBatch). The returned estimates are positional
// and byte-identical — Delta for Delta, SampleRows for SampleRows — to
// calling EstimatePlanWorkers on each plan in order against the same
// cache; only the wall-clock Duration differs (the batch's total time,
// amortized equally across the plans). cache may be a ValidationCache,
// a WorkloadCache, or nil. Plans the count-only engine cannot run fall
// back to the general executor individually — and that fallback is
// uncached, so callers batching extra plans purely to widen the
// engine's fan-out (as core does with the previous round's plan)
// should only do so with engine-supported shapes; optimizer-produced
// plans always are.
func EstimatePlans(plans []*plan.Plan, cat *catalog.Catalog, cache Cache, workers int) ([]*Estimate, error) {
	return EstimatePlansCtx(context.Background(), plans, cat, cache, workers)
}

// EstimatePlansCtx is EstimatePlans with cancellation: ctx reaches the
// batch engine (checked between waves, phases, and work-list spans) and
// the per-plan fallbacks, so a cancelled ctx aborts the whole batch with
// ctx.Err() mid-validation. Completed subtrees cached before the abort
// are valid and stay cached; nothing partial is ever stored.
func EstimatePlansCtx(ctx context.Context, plans []*plan.Plan, cat *catalog.Catalog, cache Cache, workers int) ([]*Estimate, error) {
	return EstimatePlansBudgetCtx(ctx, plans, cat, cache, workers, 0)
}

// EstimatePlansBudgetCtx is EstimatePlansCtx with a soft memory budget:
// memBudget (<= 0 unlimited) caps the values each plan's validation may
// materialize; a breaching plan fails the call with an error matching
// executor.ErrMemoryBudget (which wraps context.DeadlineExceeded, so
// budget-aware callers degrade it like a deadline). A panic inside
// validation surfaces as an error matching executor.ErrValidationPanic
// instead of unwinding.
func EstimatePlansBudgetCtx(ctx context.Context, plans []*plan.Plan, cat *catalog.Catalog, cache Cache, workers int, memBudget int64) ([]*Estimate, error) {
	return EstimatePlansCfg(ctx, plans, cat, cache, ValidateConfig{Workers: workers, MemBudget: memBudget})
}

// EstimatePlansCfg is EstimatePlansBudgetCtx with the full validation
// config, including the sample shard count.
func EstimatePlansCfg(ctx context.Context, plans []*plan.Plan, cat *catalog.Catalog, cache Cache, cfg ValidateConfig) ([]*Estimate, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	ests, perGroup, err := EstimatePlanGroupsCfg(ctx, []PlanGroup{{Plans: plans, Cache: cache}}, cat, cfg)
	if err != nil {
		return nil, err
	}
	if perGroup[0] != nil {
		return nil, perGroup[0]
	}
	return ests[0], nil
}

// PlanGroup is one requester's share of a cross-query validation batch:
// the plans it wants validated and the cache those validations read and
// charge. Groups of one batch may carry different caches — per-query
// ValidationCaches, views of one WorkloadCache, or nil — and the batch
// still deduplicates subtrees across all of them.
type PlanGroup struct {
	Plans []*plan.Plan
	Cache Cache
}

// EstimatePlanGroupsCtx validates several requesters' plans as ONE
// skeleton batch: every subtree of every group becomes one deduplicated
// task, the combined work partitions across the workers, and each
// computed sub-result is charged back to every group whose cache covers
// it (see executor.CountSkeletonBatchPlansCtx). Estimates are
// positional per group and byte-identical to each group validating
// alone via EstimatePlansCtx against its own cache; the batch's
// wall-clock cost is amortized equally across all plans, so each
// group's estimates carry its proportional share. A group whose plan
// fails estimation (or whose Volcano fallback fails) gets the error in
// its perGroup slot without dragging down the other groups; batch-level
// failures — no samples, a cancelled ctx, an engine fault — surface in
// err with every group unanswered.
func EstimatePlanGroupsCtx(ctx context.Context, groups []PlanGroup, cat *catalog.Catalog, workers int) (ests [][]*Estimate, perGroup []error, err error) {
	return EstimatePlanGroupsBudgetCtx(ctx, groups, cat, workers, 0)
}

// EstimatePlanGroupsBudgetCtx is EstimatePlanGroupsCtx with a per-plan
// soft memory budget (memBudget <= 0 means unlimited) and panic
// containment. A group whose plan breaches the budget or panics gets
// the failure in its perGroup slot — matching executor.ErrMemoryBudget
// or executor.ErrValidationPanic respectively — while co-batched groups
// are unaffected; the failing group's cache is left unpoisoned (failed
// work stores nothing, completed shared subtrees remain valid).
func EstimatePlanGroupsBudgetCtx(ctx context.Context, groups []PlanGroup, cat *catalog.Catalog, workers int, memBudget int64) (ests [][]*Estimate, perGroup []error, err error) {
	return EstimatePlanGroupsCfg(ctx, groups, cat, ValidateConfig{Workers: workers, MemBudget: memBudget})
}

// EstimatePlanGroupsCfg is EstimatePlanGroupsBudgetCtx with the full
// validation config, including the sample shard count — the entry point
// through which the scheduler fans one wave's shards across workers.
func EstimatePlanGroupsCfg(ctx context.Context, groups []PlanGroup, cat *catalog.Catalog, cfg ValidateConfig) (ests [][]*Estimate, perGroup []error, err error) {
	if len(groups) == 0 {
		return nil, nil, nil
	}
	if faultinject.Active() {
		faultinject.Fire(faultinject.Estimate, fmt.Sprintf("groups=%d", len(groups)))
	}
	if !cat.HasSamples() {
		return nil, nil, fmt.Errorf("sampling: %w", ErrNoSamples)
	}
	start := time.Now()
	total := 0
	for _, g := range groups {
		total += len(g.Plans)
	}
	bplans := make([]executor.BatchPlan, 0, total)
	skels := make([][]*plan.Plan, len(groups))
	for gi, g := range groups {
		var skel *executor.SkeletonCache
		if g.Cache != nil {
			skel = g.Cache.skeleton(cat)
		}
		skels[gi] = make([]*plan.Plan, len(g.Plans))
		for i, p := range g.Plans {
			sp := &plan.Plan{Root: rewrite(p.Root), Query: p.Query}
			skels[gi][i] = sp
			bplans = append(bplans, executor.BatchPlan{Plan: sp, Cache: skel})
		}
	}
	counts := make([]map[plan.Node]int64, total)
	perPlan := make([]error, total)
	if useFastPath {
		counts, perPlan, err = executor.CountSkeletonBatchCfg(ctx, bplans, cat.Sample, cfg.skel())
		if err != nil {
			return nil, nil, fmt.Errorf("sampling: batch skeleton run: %w", err)
		}
	} else {
		// Fast path disabled (equivalence tests): every plan takes the
		// general-executor fallback below.
		for i := range perPlan {
			perPlan[i] = executor.ErrSkeletonUnsupported
		}
	}
	ests = make([][]*Estimate, len(groups))
	perGroup = make([]error, len(groups))
	pos := 0
	for gi, g := range groups {
		ests[gi] = make([]*Estimate, len(g.Plans))
		for i, p := range g.Plans {
			nodeRows := counts[pos]
			if e := perPlan[pos]; e != nil && perGroup[gi] == nil {
				if !errors.Is(e, executor.ErrSkeletonUnsupported) {
					perGroup[gi] = fmt.Errorf("sampling: batch skeleton run: %w", e)
				} else if nodeRows, e = volcanoCounts(ctx, skels[gi][i], cat); e != nil {
					perGroup[gi] = fmt.Errorf("sampling: skeleton run: %w", e)
				}
			}
			if perGroup[gi] != nil {
				pos++
				continue
			}
			est, eerr := estimateFromCounts(p, skels[gi][i].Root, cat, nodeRows)
			if eerr != nil {
				perGroup[gi] = eerr
			} else {
				ests[gi][i] = est
			}
			pos++
		}
		if perGroup[gi] != nil {
			ests[gi] = nil
		}
	}
	// One skeleton batch produced every estimate; report its cost
	// amortized equally per plan so summing a group's Durations reflects
	// its proportional share of the total sampling overhead.
	dur := time.Since(start) / time.Duration(total)
	for _, ge := range ests {
		for _, e := range ge {
			if e != nil {
				e.Duration = dur
			}
		}
	}
	return ests, perGroup, nil
}

// estimateFromCounts scales a skeleton run's raw sample counts into the
// Δ of Algorithm 1 — shared by the single-plan and batched paths, which
// is what keeps their estimates byte-identical.
func estimateFromCounts(p *plan.Plan, skeleton plan.Node, cat *catalog.Catalog, nodeRows map[plan.Node]int64) (*Estimate, error) {
	est := &Estimate{
		Delta:      make(map[string]float64),
		SampleRows: make(map[string]int64),
	}
	// Per-alias scale factors |R| / |R^s|.
	scale := make(map[string]float64)
	for _, tr := range p.Query.Tables {
		base, err := cat.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		s, err := cat.Sample(tr.Name)
		if err != nil {
			return nil, err
		}
		sn := s.NumRows()
		if sn == 0 {
			// Degenerate sample: fall back to the nominal ratio so the
			// estimator stays defined (the estimate for sets touching
			// this table will be 0 anyway, since the sample is empty).
			scale[tr.Alias] = 1 / cat.SampleRatio()
			continue
		}
		scale[tr.Alias] = float64(base.NumRows()) / float64(sn)
	}

	plan.Walk(skeleton, func(n plan.Node) {
		aliases := n.Aliases()
		key := optimizer.GammaKeyFor(aliases)
		count := nodeRows[n]
		scaleProd := 1.0
		for _, a := range aliases {
			scaleProd *= scale[a]
		}
		f := float64(count) * scaleProd
		// Resolution-limit floor: a sample that observed zero rows for a
		// set cannot certify a cardinality below ~half of what one
		// sample row represents. Without the floor, one unlucky sample
		// (probability (1-ratio)^|σ(R)| per leaf) writes a hard zero
		// into Γ, every plan built on that set estimates as free, and
		// the optimizer can converge to a catastrophic plan — the
		// uncertainty concern the paper raises in §7. Non-zero counts
		// are unaffected (count·scale ≥ scale > floor).
		if count == 0 {
			f = 0.5 * scaleProd
		}
		est.Delta[key] = f
		est.SampleRows[key] = count
	})
	return est, nil
}

// useFastPath gates the count-only skeleton engine; equivalence tests
// flip it to compare the fast path against the general executor.
var useFastPath = true

// skeletonCounts runs the count-only fast path over the samples, falling
// back to the general Volcano executor for plan shapes the fast path
// does not cover (it covers everything sampling.rewrite emits; the
// fallback keeps external callers with hand-built plans working). Only
// the explicit unsupported-shape error triggers the fallback — any other
// engine failure propagates rather than silently degrading every
// validation to the slow path.
func skeletonCounts(ctx context.Context, sp *plan.Plan, cat *catalog.Catalog, skel *executor.SkeletonCache, cfg ValidateConfig) (map[plan.Node]int64, error) {
	if useFastPath {
		counts, err := executor.CountSkeletonCfg(ctx, sp, cat.Sample, skel, cfg.skel())
		if err == nil {
			return counts, nil
		}
		if !errors.Is(err, executor.ErrSkeletonUnsupported) {
			return nil, err
		}
	}
	return volcanoCounts(ctx, sp, cat)
}

// volcanoCounts is the general-executor fallback for per-node counts.
func volcanoCounts(ctx context.Context, sp *plan.Plan, cat *catalog.Catalog) (map[plan.Node]int64, error) {
	res, rerr := executor.RunCtx(ctx, sp, cat, executor.Options{
		CountOnly: true,
		Binder:    cat.Sample,
	})
	if rerr != nil {
		return nil, rerr
	}
	return res.NodeRows, nil
}

// rewrite converts a physical plan into its sample-execution skeleton.
// Aggregates are stripped: only join cardinalities are validated (§2 —
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
