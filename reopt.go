// Package reopt is a from-scratch relational query-processing stack —
// storage, statistics, SQL front end, cost-based optimizer, Volcano
// executor — built to reproduce "Sampling-Based Query Re-Optimization"
// (Wu, Naughton, Singh; SIGMOD 2016). Its headline feature is the
// paper's compile-time re-optimization loop: optimize, validate the
// chosen plan's join cardinalities by running its join skeleton over
// per-table samples, feed the refined estimates back, and repeat until
// the plan stops changing.
//
// The front door is Session — a long-lived, goroutine-safe handle
// created once per catalog that owns the optimizer, the workload-level
// validation cache, and the validation settings, and exposes the
// whole pipeline as context-aware methods:
//
//	cat, _ := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1})
//	s, _ := reopt.Open(cat, reopt.WithSharedCache(4096))
//	q, _ := s.Parse(`SELECT COUNT(*) FROM r1, r2 WHERE r1.a = 0 AND r2.a = 1 AND r1.b = r2.b`)
//	res, _ := s.Reoptimize(ctx, q, reopt.WithTimeout(50*time.Millisecond))
//	fmt.Println(res.Final.Explain())
//
// Every method takes a context: cancellation aborts work in flight —
// between rounds, mid-validation inside the skeleton engine, or
// mid-execution in the Volcano loop — while a deadline acts as the
// paper's §5.4 time budget, returning the best plan generated so far.
// Whole workloads run through one session with bounded concurrency via
// Session.ReoptimizeWorkload, sharing validated counts across queries.
//
// # Migrating from the free functions
//
// Execute, EstimateBySampling and NewMidQueryExecutor are gone; the
// free functions that remain are deprecated and kept only because the
// end-to-end benchmark (bench/) still calls them. Each deprecation note
// names its replacement:
//
//	NewOptimizer + NewReoptimizer + Reoptimize  ->  Open + Session.Reoptimize
//	Reoptimizer.ReoptimizeMultiSeed             ->  Session.ReoptimizeMultiSeed       (removed)
//	Parse(src, cat)                             ->  Session.Parse(src)
//	Execute(p, cat, opts)                       ->  Session.Execute(ctx, p, opts)     (removed)
//	EstimateBySampling(p, cat)                  ->  Session.Validate(ctx, p)          (removed)
//	NewWorkloadCache + ReoptOptions.Cache       ->  Open(cat, WithSharedCache(n))
//	ReoptOptions fields                         ->  WithMaxRounds / WithTimeout / WithConservative
//	WithSkipBelowCost(cost)                     ->  (removed)
//	NewMidQueryExecutor + Run                   ->  Session.MidQuery(ctx, q)          (removed)
//	SamplingEstimate.Delta / SampleRows[key]    ->  SamplingEstimate.Sets[i].Rows / SampleRows (by Mask or Key)
//	Gamma.Get(key) / Set(key, rows)             ->  Gamma.Get(mask) / Set(mask, rows), masks over Query.Tables
//	Table.Rows()                                ->  Table.Row(id) or Table.ColData().Col(pos)  (removed)
//
// Failures are classified by the sentinels in errors.go (ErrNoSamples,
// ErrUnsupportedPlan, ErrBudgetExceeded) — test with errors.Is.
// Session.Validate of a hand-built plan that does not apply exactly its
// query's predicates now fails with ErrUnsupportedPlan, where it used to
// fall back to the Volcano executor.
//
// # Serving over HTTP
//
// cmd/reoptd serves the pipeline as a multi-tenant HTTP daemon — one
// bounded Session per tenant (admission gate, memory budget and cache
// quotas from a JSON config), graceful SIGTERM drain, and
// load shedding with Retry-After hints:
//
//	go run ./cmd/reoptd -db ott                  # one default tenant on :8372
//	curl -s localhost:8372/v1/reoptimize -d '{"sql":"SELECT COUNT(*) FROM r1, r2 WHERE r1.a = 0 AND r2.a = 1 AND r1.b = r2.b"}'
//
// Package reopt/reoptclient is the matching Go client; it retries only
// failures that are provably not yet admitted (429/503, transport),
// which lets a workload ride through a daemon restart. DESIGN.md §7
// documents the status-code mapping and the drain sequence.
//
// # Development workflow
//
// make check is the tier-1 gate (vet, build, tests); make lint runs
// go vet plus cmd/reoptvet, the repo's own analyzer suite that
// enforces the written contracts — deterministic map iteration,
// goroutine panic containment, cache hygiene on error paths,
// budget-vs-ctx discipline, and the sentinel taxonomy (DESIGN.md §8).
// make race and make chaos cover the concurrency and
// failure-isolation suites. CI runs all four.
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the system inventory and the paper-experiment index.
package reopt

import (
	"reopt/internal/calibrate"
	"reopt/internal/catalog"
	"reopt/internal/core"
	"reopt/internal/cost"
	"reopt/internal/executor"
	"reopt/internal/midquery"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sampling"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
	"reopt/internal/workload/tpch"
)

// Core data-model types.
type (
	// Kind identifies a value's runtime type.
	Kind = rel.Kind
	// Value is a relational scalar (NULL, BIGINT, DOUBLE, or TEXT).
	Value = rel.Value
	// Row is a tuple of values.
	Row = rel.Row
	// Column describes one attribute.
	Column = rel.Column
	// Schema is an ordered list of columns.
	Schema = rel.Schema
	// Table is an in-memory heap table with optional indexes. Each
	// column holds NULL or values of its declared Kind: Append refuses
	// any other value, and writes nothing of the refused row.
	Table = storage.Table
	// Catalog owns tables, statistics, and samples.
	Catalog = catalog.Catalog
)

// Query processing types.
type (
	// Query is a resolved select-project-join query.
	Query = sql.Query
	// Plan is a physical query plan.
	Plan = plan.Plan
	// Optimizer is the cost-based optimizer.
	Optimizer = optimizer.Optimizer
	// OptimizerConfig tunes the optimizer.
	OptimizerConfig = optimizer.Config
	// EstimationProfile customizes selectivity estimation (the
	// commercial-system emulations of Figures 12-13).
	EstimationProfile = optimizer.Profile
	// Gamma is the validated-cardinality store Γ of Algorithm 1.
	Gamma = optimizer.Gamma
	// Units are the five PostgreSQL-style cost units.
	Units = cost.Units
	// ExecResult is the outcome of executing a plan.
	ExecResult = executor.Result
	// ExecOptions tunes plan execution.
	ExecOptions = executor.Options
)

// Re-optimization types (the paper's contribution).
type (
	// Reoptimizer runs Algorithm 1.
	Reoptimizer = core.Reoptimizer
	// ReoptOptions tunes the procedure (round/time caps, conservative
	// blending).
	ReoptOptions = core.Options
	// ReoptResult is the outcome: final plan, per-round trace, Γ.
	ReoptResult = core.Result
	// ReoptRound is one iteration's record.
	ReoptRound = core.Round
	// SamplingEstimate is the Δ produced by validating one plan.
	SamplingEstimate = sampling.Estimate
	// WorkloadCache reuses validation counts across the queries of a
	// workload (see ReoptOptions.Cache): the validation engine's one
	// store, whose keys carry the sample epoch of the catalog they were
	// computed on, so one cache serves any number of catalogs and never
	// serves counts of replaced samples.
	WorkloadCache = executor.SkeletonCache
	// SchedulerStats is always zero.
	//
	// Deprecated: there is no scheduler (see WithWorkloadScheduler).
	SchedulerStats = sampling.SchedulerStats
	// MidQueryResult reports one runtime-re-optimized execution of the
	// runtime (mid-query) re-optimization baseline (Kabra-DeWitt / POP
	// style) the paper compares against.
	MidQueryResult = midquery.Result
)

// Workload generator configs.
type (
	// TPCHConfig sizes the TPC-H-style database (Z is the skew).
	TPCHConfig = tpch.Config
	// OTTConfig sizes the Optimizer Torture Test database.
	OTTConfig = ott.Config
	// OTTQueryConfig describes a batch of OTT queries.
	OTTQueryConfig = ott.QueryConfig
	// TPCDSConfig sizes the TPC-DS-style database.
	TPCDSConfig = tpcds.Config
	// AnalyzeOptions tunes statistics collection.
	AnalyzeOptions = stats.AnalyzeOptions
	// CalibrateOptions tunes cost-unit calibration.
	CalibrateOptions = calibrate.Options
)

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// NewTable creates an empty table with the given schema; each column
// stores its declared Kind.
func NewTable(name string, schema *Schema) *Table { return storage.NewTable(name, schema) }

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return rel.NewSchema(cols...) }

// Int, Float, Str and Null construct values.
func Int(v int64) Value     { return rel.Int(v) }
func Float(v float64) Value { return rel.Float(v) }
func Str(v string) Value    { return rel.String_(v) }

// Null is the SQL NULL value.
var Null = rel.Null

// Value kinds.
const (
	KindNull   = rel.KindNull
	KindInt    = rel.KindInt
	KindFloat  = rel.KindFloat
	KindString = rel.KindString
)

// Parse parses and resolves a SQL query against the catalog.
//
// Deprecated: use Session.Parse, which binds the catalog once at Open.
// Kept only because bench/ is its last caller.
func Parse(src string, cat *Catalog) (*Query, error) { return sql.Parse(src, cat) }

// DefaultOptimizerConfig returns the standard optimizer configuration
// (PostgreSQL-style estimation, default cost units, bushy trees).
func DefaultOptimizerConfig() OptimizerConfig { return optimizer.DefaultConfig() }

// DefaultUnits are PostgreSQL's default cost units.
var DefaultUnits = cost.DefaultUnits

// NewOptimizer returns an optimizer over the catalog.
//
// Deprecated: use Open with WithOptimizerConfig; Session.Optimizer
// exposes the underlying optimizer where one is still needed. Kept only
// because bench/ is its last caller.
func NewOptimizer(cat *Catalog, cfg OptimizerConfig) *Optimizer {
	return optimizer.New(cat, cfg)
}

// NewReoptimizer returns an Algorithm 1 runner with default options.
//
// Deprecated: use Open + Session.Reoptimize, which add context support,
// concurrency safety, and the session's shared cache. Kept only because
// bench/ is its last caller.
func NewReoptimizer(opt *Optimizer, cat *Catalog) *Reoptimizer {
	return core.New(opt, cat)
}

// NewWorkloadCache returns a workload-level validation cache for
// ReoptOptions.Cache: re-optimizations sharing it reuse validation
// counts across queries (LRU-bounded to maxEntries subtree entries,
// <= 0 selects the default budget; entries are invalidated when a
// catalog rebuilds its samples). Reuse never changes estimates, only
// when they are computed. For a cache additionally bounded by retained
// materialized values, see NewWorkloadCacheBudget.
//
// Deprecated: use Open(cat, WithSharedCache(n)) — or WithCache to hand
// a Session an existing cache. Kept only because bench/ is its last
// caller.
func NewWorkloadCache(maxEntries int) *WorkloadCache {
	return NewWorkloadCacheBudget(maxEntries, 0)
}

// NewWorkloadCacheBudget is NewWorkloadCache with a second budget on
// the total values its sub-results retain — boundary-column cells and
// weights, the cache's only entries (<= 0 means unbounded) — the knob
// WithSharedCacheValues exposes — so skewed workloads where a few huge
// subtrees dominate cannot blow the memory budget. Intended for
// WithCache when a cache outlives one Session.
func NewWorkloadCacheBudget(maxEntries, maxValues int) *WorkloadCache {
	if maxEntries <= 0 {
		maxEntries = defaultCacheEntries
	}
	return executor.NewSkeletonCache(maxEntries, maxValues)
}

// defaultCacheEntries is the entry budget of a workload cache asked for
// with none (WithSharedCache, NewWorkloadCache): a few hundred distinct
// subtrees — dozens of multi-join queries' worth — while bounding the
// sample sub-results it retains.
const defaultCacheEntries = 4096

// Calibrate runs the offline cost-unit calibration micro-benchmarks.
func Calibrate(opts CalibrateOptions) (Units, error) { return calibrate.Run(opts) }

// GenerateTPCH builds the scaled-down TPC-H-style database.
func GenerateTPCH(cfg TPCHConfig) (*Catalog, error) { return tpch.Generate(cfg) }

// GenerateOTT builds the Optimizer Torture Test database (§4).
func GenerateOTT(cfg OTTConfig) (*Catalog, error) { return ott.Generate(cfg) }

// OTTQueries generates OTT query instances (§5.3).
func OTTQueries(cat *Catalog, cfg OTTQueryConfig) ([]*Query, error) {
	return ott.Queries(cat, cfg)
}

// TPCHQueries instantiates template `id` of the TPC-H-style workload n
// times with different literals (the per-template instances of §5.2).
func TPCHQueries(cat *Catalog, id, n int, seed int64) ([]*Query, error) {
	return tpch.Instances(cat, id, n, seed)
}

// TPCDSQueries instantiates a TPC-DS-style template (e.g. "50'") n
// times with different literals (Appendix A.2).
func TPCDSQueries(cat *Catalog, id string, n int, seed int64) ([]*Query, error) {
	return tpcds.Instances(cat, id, n, seed)
}

// ExplainAnalyze renders a plan annotated with estimated vs actual row
// counts from an execution of it.
func ExplainAnalyze(p *Plan, res *ExecResult) string {
	return executor.ExplainAnalyze(p, res)
}

// GenerateTPCDS builds the TPC-DS-style database (Appendix A.2).
func GenerateTPCDS(cfg TPCDSConfig) (*Catalog, error) { return tpcds.Generate(cfg) }

// SystemAProfile and SystemBProfile emulate the estimation behaviour of
// the two commercial systems of Figures 12-13.
func SystemAProfile() *EstimationProfile { return optimizer.SystemAProfile() }
func SystemBProfile() *EstimationProfile { return optimizer.SystemBProfile() }
