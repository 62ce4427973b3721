package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"reopt"
	"reopt/internal/calibrate"
	"reopt/internal/catalog"
	"reopt/internal/cost"
	"reopt/internal/optimizer"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
	"reopt/internal/workload/tpch"
)

// Config sizes the experiment databases. The defaults reproduce the
// paper's shapes in minutes on a laptop; tests shrink them further.
type Config struct {
	// TPCHCustomers scales the TPC-H databases; 0 means 1500.
	TPCHCustomers int
	// OTTRowsPerValue is M; 0 means 40.
	OTTRowsPerValue int
	// DSStoreSales scales the TPC-DS database; 0 means 30000.
	DSStoreSales int
	// Instances is the number of instances per TPC-H/TPC-DS template;
	// 0 means 5 (the paper uses 10).
	Instances int
	// OTT4Count and OTT5Count are the 4-join and 5-join OTT query
	// counts; 0 means 10 and 30 (as in the paper).
	OTT4Count int
	OTT5Count int
	// WorkloadCacheEntries, when positive, shares one workload-level
	// validation cache (of that many subtree entries) across every
	// query of the run: repeated and similar query instances reuse each
	// other's validation counts. 0 keeps per-query caches — the paper's
	// setting, where each query's overhead is measured cold.
	WorkloadCacheEntries int
	// Seed drives everything.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.TPCHCustomers <= 0 {
		c.TPCHCustomers = 1500
	}
	if c.OTTRowsPerValue <= 0 {
		c.OTTRowsPerValue = 40
	}
	if c.DSStoreSales <= 0 {
		c.DSStoreSales = 30000
	}
	if c.Instances <= 0 {
		c.Instances = 5
	}
	if c.OTT4Count <= 0 {
		c.OTT4Count = 10
	}
	if c.OTT5Count <= 0 {
		c.OTT5Count = 30
	}
	return c
}

// Runner lazily builds and caches the experiment databases and the
// calibrated cost units, then serves each figure's table.
type Runner struct {
	cfg Config
	ctx context.Context

	calUnits *cost.Units
	tpchCats map[float64]*catalog.Catalog
	ottCat   *catalog.Catalog
	dsCat    *catalog.Catalog
	wlCache  *reopt.WorkloadCache

	tpchSeriesCache map[string]map[int]metrics
	ottSeriesCache  map[string][]queryMetric
	dsSeriesCache   map[string]map[string]metrics
}

// NewRunner returns a Runner over the config. ctx governs every
// measurement the runner performs: cancelling it aborts the in-flight
// experiment (mid-validation or mid-execution) with ctx.Err().
func NewRunner(ctx context.Context, cfg Config) *Runner {
	r := &Runner{ctx: ctx, cfg: cfg.withDefaults(), tpchCats: map[float64]*catalog.Catalog{}}
	if r.cfg.WorkloadCacheEntries > 0 {
		// One cache across every experiment and catalog is safe: entries
		// are namespaced by the catalog's process-unique sample epoch.
		r.wlCache = reopt.NewWorkloadCacheBudget(r.cfg.WorkloadCacheEntries, 0)
	}
	return r
}

// session opens a reopt.Session over cat with the runner's cache
// configuration — the experiments drive the same public API the
// examples and cmd/reopt use.
func (r *Runner) session(cat *catalog.Catalog, cfg optimizer.Config) (*reopt.Session, error) {
	return reopt.Open(cat, reopt.WithOptimizerConfig(cfg), reopt.WithCache(r.wlCache))
}

// CalibratedUnits runs (and caches) cost-unit calibration.
func (r *Runner) CalibratedUnits() cost.Units {
	if r.calUnits == nil {
		u, err := calibrate.Run(calibrate.Options{Seed: r.cfg.Seed})
		if err != nil {
			// Calibration failure falls back to defaults; experiments
			// still run, and the table notes record the fallback.
			u = cost.DefaultUnits
		}
		r.calUnits = &u
	}
	return *r.calUnits
}

func (r *Runner) tpchCat(z float64) (*catalog.Catalog, error) {
	if c, ok := r.tpchCats[z]; ok {
		return c, nil
	}
	c, err := tpch.Generate(tpch.Config{Customers: r.cfg.TPCHCustomers, Z: z, Seed: r.cfg.Seed})
	if err != nil {
		return nil, err
	}
	r.tpchCats[z] = c
	return c, nil
}

func (r *Runner) ottCatalog() (*catalog.Catalog, error) {
	if r.ottCat == nil {
		c, err := ott.Generate(ott.Config{RowsPerValue: r.cfg.OTTRowsPerValue, Seed: r.cfg.Seed})
		if err != nil {
			return nil, err
		}
		r.ottCat = c
	}
	return r.ottCat, nil
}

func (r *Runner) dsCatalog() (*catalog.Catalog, error) {
	if r.dsCat == nil {
		c, err := tpcds.Generate(tpcds.Config{StoreSales: r.cfg.DSStoreSales, Seed: r.cfg.Seed})
		if err != nil {
			return nil, err
		}
		r.dsCat = c
	}
	return r.dsCat, nil
}

// queryMetric holds the measurements for one query instance.
type queryMetric struct {
	origMs     float64   // original plan execution time
	reoptMs    float64   // re-optimized (final) plan execution time
	plans      int       // number of plans generated
	overheadMs float64   // re-optimization overhead (sampling + re-planning)
	roundsMs   []float64 // per-round plan runtimes (when requested)
}

// metrics aggregates the measurements for one query template.
type metrics struct {
	origMs, reoptMs float64 // mean execution time, original vs final plan
	origSd, reoptSd float64 // standard deviations
	plans           float64 // mean number of plans generated
	overheadMs      float64 // mean re-optimization overhead
	instances       int
	perQuery        []queryMetric
}

// measureOne optimizes, re-optimizes, and executes one query under the
// given cost units.
func (r *Runner) measureOne(cat *catalog.Catalog, units cost.Units, q *sql.Query, perRound bool) (queryMetric, error) {
	return r.measureOneWith(cat, units, nil, q, perRound)
}

// measureOneWith additionally accepts an estimation profile (nil means
// the PostgreSQL-style default).
func (r *Runner) measureOneWith(cat *catalog.Catalog, units cost.Units, profile *optimizer.Profile, q *sql.Query, perRound bool) (queryMetric, error) {
	cfg := optimizer.DefaultConfig()
	cfg.Units = units
	if profile != nil {
		cfg.Profile = profile
	}
	var qm queryMetric
	sess, err := r.session(cat, cfg)
	if err != nil {
		return qm, err
	}
	orig, err := sess.Optimize(q)
	if err != nil {
		return qm, fmt.Errorf("optimize: %w", err)
	}
	origRun, err := sess.Execute(r.ctx, orig, reopt.ExecOptions{CountOnly: true})
	if err != nil {
		return qm, fmt.Errorf("run original: %w", err)
	}
	res, err := sess.Reoptimize(r.ctx, q)
	if err != nil {
		return qm, fmt.Errorf("reoptimize: %w", err)
	}
	finalRun, err := sess.Execute(r.ctx, res.Final, reopt.ExecOptions{CountOnly: true})
	if err != nil {
		return qm, fmt.Errorf("run final: %w", err)
	}
	if origRun.Count != finalRun.Count {
		return qm, fmt.Errorf("result mismatch: original %d vs reoptimized %d rows",
			origRun.Count, finalRun.Count)
	}
	qm.origMs = ms(origRun.Duration)
	qm.reoptMs = ms(finalRun.Duration)
	qm.plans = res.NumPlans
	qm.overheadMs = ms(res.ReoptTime)
	if perRound && len(res.Rounds) > 1 {
		for _, rd := range res.Rounds {
			run, err := sess.Execute(r.ctx, rd.Plan, reopt.ExecOptions{CountOnly: true})
			if err != nil {
				return qm, fmt.Errorf("run round plan: %w", err)
			}
			qm.roundsMs = append(qm.roundsMs, ms(run.Duration))
		}
	}
	return qm, nil
}

// measureSet runs measureOne for every query and aggregates.
func (r *Runner) measureSet(cat *catalog.Catalog, units cost.Units, queries []*sql.Query, perRound bool) (metrics, error) {
	var m metrics
	var origTimes, reoptTimes []float64
	for _, q := range queries {
		qm, err := r.measureOne(cat, units, q, perRound)
		if err != nil {
			return m, err
		}
		origTimes = append(origTimes, qm.origMs)
		reoptTimes = append(reoptTimes, qm.reoptMs)
		m.plans += float64(qm.plans)
		m.overheadMs += qm.overheadMs
		m.perQuery = append(m.perQuery, qm)
		m.instances++
	}
	n := float64(len(queries))
	if n == 0 {
		return m, fmt.Errorf("no queries")
	}
	m.origMs, m.origSd = meanSd(origTimes)
	m.reoptMs, m.reoptSd = meanSd(reoptTimes)
	m.plans /= n
	m.overheadMs /= n
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func meanSd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
