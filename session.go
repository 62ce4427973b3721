package reopt

// Session: the package's front door. Production query engines expose a
// long-lived engine handle that owns planner state, caches and worker
// budgets, and mint cheap per-query objects from it; this package grew
// the other way — free functions accreting variants (EstimateBySampling
// and its kin, NewOptimizer + NewReoptimizer wired by hand) — until
// embedding it in a server meant rediscovering the wiring in every
// caller. Session collapses that surface: one goroutine-safe handle per
// catalog that owns the optimizer and the workload-level validation
// cache, and exposes the whole pipeline as context-aware methods. The
// free functions that remain are deprecated wrappers kept only for bench/.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"reopt/internal/core"
	"reopt/internal/executor"
	"reopt/internal/midquery"
	"reopt/internal/optimizer"
	"reopt/internal/sql"
)

// Session is a long-lived, goroutine-safe handle over one catalog: it
// owns the cost-based optimizer, the (optional) workload-level
// validation cache shared by every query that flows through it, and the
// validation settings. Create one per catalog with
// Open and share it freely across goroutines — all methods are safe for
// concurrent use, and concurrent re-optimizations through the shared
// cache produce results identical to running them sequentially (cache
// reuse never changes estimates, only when they are computed).
//
// The one caveat is catalog mutation: AddTable, Analyze and
// BuildSamples on the underlying catalog must not run concurrently with
// in-flight Session calls. Rebuilding samples between (not during)
// calls is safe and invalidates the shared cache wholesale via the
// catalog's sample epoch.
type Session struct {
	cat       *Catalog
	opt       *optimizer.Optimizer
	cache     *WorkloadCache
	memBudget int64
	adm       *admission
}

// sessionConfig collects Open's functional options.
type sessionConfig struct {
	optCfg       OptimizerConfig
	haveOptCfg   bool
	cacheEntries int
	cacheValues  int
	wantCache    bool
	cache        *WorkloadCache
	memBudget    int64
	maxInFlight  int
	queueDepth   int
}

// SessionOption configures Open.
type SessionOption func(*sessionConfig)

// WithOptimizerConfig selects the optimizer configuration (cost units,
// estimation profile, search knobs) for every plan the session
// produces. Without it, DefaultOptimizerConfig applies.
func WithOptimizerConfig(cfg OptimizerConfig) SessionOption {
	return func(c *sessionConfig) { c.optCfg, c.haveOptCfg = cfg, true }
}

// WithWorkers once bounded the parallelism inside one validation.
//
// Deprecated: WithWorkers no longer selects anything — a validation runs
// on the goroutine of the call that asked for it, and concurrency comes
// from concurrent calls — and is kept only because bench/ passes it.
func WithWorkers(n int) SessionOption {
	return func(*sessionConfig) {}
}

// WithSampleShards once split every table's sample into shards for
// validation.
//
// Deprecated: samples are no longer sharded; WithSampleShards does
// nothing and bench/ is its last caller.
func WithSampleShards(n int) SessionOption {
	return func(*sessionConfig) {}
}

// WithSharedCache gives the session a workload-level validation cache
// of at most maxEntries subtree sub-results (<= 0 selects the default
// budget, 4096): every query re-optimized through the session then reuses
// validation counts computed for earlier — or concurrently running —
// queries over the same samples. Reuse never changes estimates, only
// when they are computed; entries are invalidated wholesale when the
// catalog rebuilds its samples. Without this option (or WithCache),
// each re-optimization gets a private cache scoped to its own rounds.
func WithSharedCache(maxEntries int) SessionOption {
	return func(c *sessionConfig) {
		c.cacheEntries = maxEntries
		c.wantCache = true
	}
}

// WithSharedCacheValues additionally bounds the shared cache by the
// total number of values its sub-results may retain — boundary-column
// cells and weights; the cache holds nothing else (<= 0 means
// unbounded) — the paper-workload analogue of a byte budget:
// on skewed workloads a few huge subtrees can dominate retained memory
// while the entry count stays small, and the value budget evicts
// least-recently-used entries until the total fits. Implies
// WithSharedCache.
func WithSharedCacheValues(maxValues int) SessionOption {
	return func(c *sessionConfig) {
		c.cacheValues = maxValues
		c.wantCache = true
	}
}

// WithWorkloadScheduler once gathered the validations of concurrently
// re-optimizing queries into waves.
//
// Deprecated: there is no scheduler — every validation runs on the
// goroutine of the call that asked for it — so WithWorkloadScheduler does
// nothing. bench/ is its last caller.
func WithWorkloadScheduler(window time.Duration) SessionOption {
	return func(*sessionConfig) {}
}

// WithMemoryBudget caps, per validation, the number of materialized
// boundary-column values plus hash-table entries the skeleton engines
// may hold live (<= 0 means unlimited) — the space analogue of the
// paper's §5.4 time budget, for daemons that must bound the worst-case
// footprint of any single validation. A breach never fails a query:
// inside Reoptimize / ReoptimizeMultiSeed / ReoptimizeWorkload the
// offending candidate plan is charged the breach and the round keeps
// the best validated plan so far, exactly like an expired time budget
// (the sentinel, ErrMemoryBudget, wraps context.DeadlineExceeded for
// that reason). Only Validate — which has no best-so-far to fall back
// on — surfaces ErrMemoryBudget to the caller, positionally, for
// exactly the plans that breached. The budget is enforced per plan per
// validation: concurrent queries each get the full budget, a breaching
// plan never poisons the shared cache, and its peers' results stay
// byte-identical to running without it.
//
// The unit is values, matching WithSharedCacheValues: what one
// validation may materialize transiently versus what the cache may
// retain persistently.
func WithMemoryBudget(values int64) SessionOption {
	return func(c *sessionConfig) { c.memBudget = values }
}

// WithMaxInFlight bounds how many expensive calls — Reoptimize,
// ReoptimizeMultiSeed, Validate, and each query inside
// ReoptimizeWorkload — may run concurrently (n) and how many more may
// wait their turn (queueDepth, FIFO). The call after the queue fills is
// shed immediately with ErrOverloaded rather than waiting: a loaded
// daemon degrades by answering fewer queries fast, not every query
// slowly. A queued call whose ctx is cancelled leaves the queue
// promptly with ctx.Err(). n <= 0 means unlimited (the default).
// Serial traffic — one call at a time — is never queued or shed at any
// setting of n >= 1. Execute and MidQuery are not admission-limited;
// they only respect Close.
//
// In ReoptimizeWorkload, a shed query leaves a nil hole in the result
// slice with an ErrOverloaded-wrapped error recorded per query in the
// returned *WorkloadError; answered queries are unaffected.
func WithMaxInFlight(n, queueDepth int) SessionOption {
	return func(c *sessionConfig) {
		c.maxInFlight = n
		c.queueDepth = queueDepth
	}
}

// WithTemplateSharing once refined cached scans of one query template for
// instances with other constants.
//
// Deprecated: there is no template sharing — instances of one template
// share validation work through the cache's exact subtree keys, as any
// two queries do — so WithTemplateSharing does nothing. bench/ is its
// last caller; the TemplateSharing equivalence tests keep it a no-op.
func WithTemplateSharing() SessionOption {
	return func(*sessionConfig) {}
}

// WithCache adopts an existing workload cache instead of creating one —
// for sharing validation counts between sessions (e.g. two sessions
// planning one catalog under different optimizer configurations), or
// for keeping a cache alive across Session lifetimes. Sharing one cache
// between sessions over different catalogs is safe: every key is
// namespaced by the process-unique sample epoch of the catalog it was
// computed on, so they can never serve each other's counts.
// Overrides WithSharedCache budgets when both are given.
func WithCache(cache *WorkloadCache) SessionOption {
	return func(c *sessionConfig) { c.cache = cache }
}

// Open creates a Session over the catalog. The zero-option call
// `reopt.Open(cat)` gives defaults equivalent to the legacy
// NewOptimizer + NewReoptimizer pairing: default optimizer
// configuration, no cross-query cache.
func Open(cat *Catalog, opts ...SessionOption) (*Session, error) {
	if cat == nil {
		return nil, fmt.Errorf("reopt: Open: catalog is nil")
	}
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.haveOptCfg {
		cfg.optCfg = DefaultOptimizerConfig()
	}
	s := &Session{
		cat:       cat,
		opt:       optimizer.New(cat, cfg.optCfg),
		memBudget: cfg.memBudget,
		adm:       newAdmission(cfg.maxInFlight, cfg.queueDepth),
	}
	switch {
	case cfg.cache != nil:
		s.cache = cfg.cache
	case cfg.wantCache:
		s.cache = NewWorkloadCacheBudget(cfg.cacheEntries, cfg.cacheValues)
	}
	return s, nil
}

// Close shuts the session down: every call that arrives afterwards —
// and every call still waiting in the admission queue — fails with
// ErrSessionClosed, and Close blocks until the calls already in flight
// finish (they complete normally; nothing is aborted). The catalog, a
// cache adopted via WithCache, and already-returned results remain
// valid. Close is idempotent and safe to call concurrently.
func (s *Session) Close() error {
	s.adm.close()
	return nil
}

// InFlight reports how many admitted calls the session is currently
// running — the census Close drains. Calls waiting in the admission
// queue are not counted: they hold no permit yet. Serving layers use
// this to verify that abandoned requests (a client disconnect, a
// cancelled ctx) release their admission slots, and to report load.
func (s *Session) InFlight() int { return s.adm.census() }

// Catalog returns the catalog the session plans against.
func (s *Session) Catalog() *Catalog { return s.cat }

// Optimizer returns the session's cost-based optimizer, for callers
// that need plain optimization or re-costing alongside the pipeline
// methods.
func (s *Session) Optimizer() *Optimizer { return s.opt }

// CacheStats reports the shared validation cache's subtree lookup hits
// and misses (zeros when the session has no shared cache).
func (s *Session) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// RowStats reports the sample rows the shared cache's sub-results have
// counted and the physical rows materialized to hold them (zeros without
// a cache).
func (s *Session) RowStats() (counted, materialized int64) { return s.cache.RowStats() }

// SchedulerStats returns zeros.
//
// Deprecated: there is no scheduler (see WithWorkloadScheduler).
func (s *Session) SchedulerStats() SchedulerStats { return SchedulerStats{} }

// Parse parses and resolves a SQL query against the session's catalog.
func (s *Session) Parse(src string) (*Query, error) { return sql.Parse(src, s.cat) }

// Optimize plans q once, without validation — the P_1 a plain optimizer
// would execute, useful as the baseline against Reoptimize's final
// plan.
func (s *Session) Optimize(q *Query) (*Plan, error) { return s.opt.Optimize(q, nil) }

// ReoptOption tunes one Reoptimize / ReoptimizeMultiSeed /
// ReoptimizeWorkload call. The options mirror the paper's §5.4 budget
// knobs; without any, plain Algorithm 1 runs to convergence.
type ReoptOption func(*ReoptOptions)

// WithMaxRounds caps optimizer invocations; hitting the cap returns the
// best plan generated so far under sampled costs (§5.4 early stop).
func WithMaxRounds(n int) ReoptOption {
	return func(o *ReoptOptions) { o.MaxRounds = n }
}

// WithTimeout caps the call's total wall time. It is applied as a
// context deadline, so it also aborts a validation in flight (except
// the first round's, which always completes); hitting it returns the
// best plan generated so far, exactly like a deadline on the call's own
// ctx. In ReoptimizeWorkload the budget applies per query.
func WithTimeout(d time.Duration) ReoptOption {
	return func(o *ReoptOptions) { o.Timeout = d }
}

// WithConservative blends each sampled estimate with the optimizer's
// statistics-based estimate, weighted by sample-size confidence (the §7
// uncertainty-aware variant).
func WithConservative() ReoptOption {
	return func(o *ReoptOptions) { o.Conservative = true }
}

// reoptimizer mints the per-call Algorithm 1 runner: session-owned
// state (optimizer, shared cache, validation settings) plus the call's
// options. Reoptimizer itself is stateless across calls, so this is a
// cheap stack object, not a pooled resource.
func (s *Session) reoptimizer(opts []ReoptOption) *Reoptimizer {
	r := core.New(s.opt, s.cat)
	r.Opts.Cache = s.cache
	r.Opts.MemBudget = s.memBudget
	for _, o := range opts {
		o(&r.Opts)
	}
	return r
}

// Reoptimize runs the paper's Algorithm 1 on q: optimize, validate the
// plan's join skeleton over the samples, fold the refined cardinalities
// Γ back, repeat until the plan stops changing. Cancelling ctx aborts
// the procedure — between rounds or mid-validation — with ctx.Err(); a
// ctx deadline (or WithTimeout) is a budget, returning the best plan
// generated so far when it expires. Results are byte-identical to the
// legacy Reoptimizer at every worker count and cache configuration.
//
// The call is subject to the session's admission gate: with
// WithMaxInFlight configured it may queue (honoring ctx while it
// waits) or fail fast with ErrOverloaded, and after Close it fails
// with ErrSessionClosed. A panic inside a validation engine surfaces
// as an error matching ErrValidationPanic instead of unwinding; the
// session remains fully usable.
func (s *Session) Reoptimize(ctx context.Context, q *Query, opts ...ReoptOption) (*ReoptResult, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	return s.reoptimizer(opts).ReoptimizeCtx(ctx, q)
}

// ReoptimizeMultiSeed runs Algorithm 1 from up to seeds distinct
// initial plans (the §7 multi-candidate variant) and returns the run
// whose final plan has the lowest sampled cost. Seeds share one
// validation cache and prepared state — and the session's cross-query
// cache, when configured — so a later seed reuses what earlier seeds
// validated. The budget (WithTimeout or a ctx deadline) covers
// generating the seeds too, so a large seeds count costs no more than the
// budget. Context, admission and panic-containment semantics match
// Reoptimize.
func (s *Session) ReoptimizeMultiSeed(ctx context.Context, q *Query, seeds int, opts ...ReoptOption) (*ReoptResult, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	return s.reoptimizer(opts).ReoptimizeMultiSeedCtx(ctx, q, seeds)
}

// Validate runs the sampling-based estimator over the plans' join
// skeletons, one after another on the calling goroutine. Estimates are
// positional and byte-identical to validating each plan alone. With a
// shared cache configured, subtrees the plans share execute once and
// counts persist for later (and concurrent) queries; without one, every
// plan is validated from scratch. Cancelling ctx aborts the call
// between two steps of a plan with ctx.Err() without poisoning the
// cache. Validate replaces the removed EstimateBySampling.
//
// Every plan must be inside the skeleton engine's contract: a tree of
// scans and equi-joins applying exactly its query's filters and join
// predicates, as every plan from Optimize is. A hand-built plan outside
// it — or a nil plan, or one without a query or root — fails the call
// with an error matching ErrUnsupportedPlan before it executes anything.
// A plan whose hand-built query Optimize would refuse fails it with
// Optimize's error — ErrTooManyTables, ErrAlias or ErrJoinEndpoints —
// and not as ErrUnsupportedPlan: the query is refused, not the plan.
//
// The call is admission-gated like Reoptimize. Under WithMemoryBudget,
// a validation that breaches the budget fails the call with an error
// matching ErrMemoryBudget — Validate has no best-so-far plan to
// degrade to — and a panic inside a plan's subtree fails it with an
// error matching ErrValidationPanic. In all three cases the cache is
// left unpoisoned. The isolation boundary is the call: a failure in one
// Validate never affects a concurrent call's results.
func (s *Session) Validate(ctx context.Context, plans ...*Plan) ([]*SamplingEstimate, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	if len(plans) == 0 {
		return nil, nil
	}
	// One handle for the call: plans of the first plan's query share its
	// prepared state, derived from a graph of its own since no planner
	// made one; any other query's plans are prepared on their own, under
	// the same store and budget. A first plan without a query has no
	// handle, and the estimator refuses it.
	var cache *executor.Prepared
	if p := plans[0]; p != nil && p.Query != nil {
		var err error
		if cache, err = core.Prepare(sql.NewGraph(p.Query), s.cache, s.cat, s.memBudget); err != nil {
			return nil, err
		}
	}
	return core.EstimatePlans(ctx, plans, s.cat, cache)
}

// Execute runs a plan against the catalog's base tables. Cancelling ctx
// aborts the run — the Volcano pull loop polls the context every 1024
// rows per operator — with ctx.Err().
func (s *Session) Execute(ctx context.Context, p *Plan, opts ExecOptions) (*ExecResult, error) {
	if err := s.adm.enter(); err != nil {
		return nil, err
	}
	defer s.adm.exit()
	return executor.RunCtx(ctx, p, s.cat, opts)
}

// MidQuery executes q under the runtime (mid-query) re-optimization
// baseline the paper compares against: materialize each join, observe
// the true cardinality, replan the rest. Cancelling ctx aborts
// mid-materialization with ctx.Err().
func (s *Session) MidQuery(ctx context.Context, q *Query) (*MidQueryResult, error) {
	if err := s.adm.enter(); err != nil {
		return nil, err
	}
	defer s.adm.exit()
	return midquery.New(s.opt, s.cat).RunCtx(ctx, q)
}

// WorkloadError reports a ReoptimizeWorkload call that answered some
// queries but not all. Errs is positional and parallel to the result
// slice: Errs[i] is non-nil exactly where results[i] is nil, wrapping
// the per-query cause — ErrBudgetExceeded (budget spent while the
// query sat queued), ErrOverloaded (shed at the admission gate),
// ErrValidationPanic (contained engine panic), or ErrSessionClosed.
// errors.Is on the WorkloadError itself matches any of the per-query
// causes, so existing `errors.Is(err, ErrBudgetExceeded)` callers keep
// working.
type WorkloadError struct {
	Queries int     // total queries in the workload
	Errs    []error // positional per-query causes; nil where answered
}

func (e *WorkloadError) Error() string {
	missing := 0
	for _, qe := range e.Errs {
		if qe != nil {
			missing++
		}
	}
	return fmt.Sprintf("reopt: workload finished with %d/%d queries unanswered (first: %v)",
		missing, e.Queries, e.first())
}

func (e *WorkloadError) first() error {
	for _, qe := range e.Errs {
		if qe != nil {
			return qe
		}
	}
	return nil
}

// Unwrap exposes the non-nil per-query causes to errors.Is/As.
func (e *WorkloadError) Unwrap() []error {
	errs := make([]error, 0, len(e.Errs))
	for _, qe := range e.Errs {
		if qe != nil {
			errs = append(errs, qe)
		}
	}
	return errs
}

// reoptimizeIsolated is the workload worker's re-optimization step: the
// body of Reoptimize without the admission gate (the worker holds its
// own permit), plus a panic barrier. Workload queries run on
// session-owned goroutines, where an escaped panic would kill the whole
// process rather than one caller — so here, unlike on the synchronous
// entry points, containment at the seam is mandatory, not courtesy.
func (s *Session) reoptimizeIsolated(ctx context.Context, q *Query, opts []ReoptOption) (res *ReoptResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, executor.NewPanicError(r)
		}
	}()
	return s.reoptimizer(opts).ReoptimizeCtx(ctx, q)
}

// isolatedQueryError reports whether err fails only the query that
// produced it — a contained panic, an admission shed, or a close racing
// the workload — as opposed to conditions that end the whole call.
func isolatedQueryError(err error) bool {
	return errors.Is(err, ErrValidationPanic) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrSessionClosed)
}

// ReoptimizeWorkload re-optimizes a batch of queries with bounded
// concurrency — the workload-scale mode the paper argues sampling makes
// affordable ("re-optimize every query"). parallelism bounds the number
// of queries in flight (<= 0 selects GOMAXPROCS); per-query budgets
// (WithMaxRounds, WithTimeout) apply to each query independently.
// Queries share the session's cross-query cache when one is configured,
// so similar instances validate against each other's counts; every
// query's result is identical to re-optimizing it sequentially.
//
// Results are positional. Failures that are one query's own — a spent
// per-query budget, an ErrOverloaded admission shed, a contained
// validation panic — leave a nil hole at that query's position while
// every other query proceeds; the call then returns the partial result
// slice alongside a *WorkloadError carrying the per-query causes
// (errors.Is against it matches each cause, e.g. ErrBudgetExceeded).
// A deadline on ctx follows the same budget semantics: queries already
// answered keep their results, in-flight ones return their
// best-so-far plans, and queries whose budget was spent while they sat
// queued become holes. Any other query error — and plain cancellation
// of ctx, which returns (nil, ctx.Err()) — cancels the remaining work.
func (s *Session) ReoptimizeWorkload(ctx context.Context, queries []*Query, parallelism int, opts ...ReoptOption) ([]*ReoptResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if err := s.adm.enter(); err != nil {
		return nil, err
	}
	defer s.adm.exit()
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*ReoptResult, len(queries))
	qerrs := make([]error, len(queries)) // disjoint writes: one owner per index
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) || wctx.Err() != nil {
					return
				}
				if err := s.adm.acquire(wctx); err != nil {
					if isolatedQueryError(err) {
						// Shed (or closed mid-workload): this query is
						// lost, the rest of the workload is not.
						qerrs[i] = fmt.Errorf("reopt: workload query %d: %w", i, err)
						continue
					}
					return // ctx cancelled or deadline spent while queued
				}
				res, err := s.reoptimizeIsolated(wctx, queries[i], opts)
				s.adm.release()
				if err != nil {
					// Contained panics fail their own query; budget
					// exhaustion means this query never produced a plan
					// but completed queries keep theirs. Everything
					// else cancels the remaining work.
					if isolatedQueryError(err) {
						qerrs[i] = fmt.Errorf("reopt: workload query %d: %w", i, err)
						continue
					}
					if errors.Is(err, context.DeadlineExceeded) {
						return
					}
					errOnce.Do(func() {
						firstErr = fmt.Errorf("reopt: workload query %d: %w", i, err)
						cancel()
					})
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	missing := 0
	for i, r := range results {
		if r == nil {
			if qerrs[i] == nil {
				// No recorded cause: the per-query budget was spent
				// while the query sat queued behind its peers.
				qerrs[i] = fmt.Errorf("reopt: workload query %d unanswered: %w", i, ErrBudgetExceeded)
			}
			missing++
		}
	}
	if missing > 0 {
		return results, &WorkloadError{Queries: len(queries), Errs: qerrs}
	}
	return results, nil
}
