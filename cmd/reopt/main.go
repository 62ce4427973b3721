// Command reopt demonstrates sampling-based query re-optimization on a
// generated database: it plans a query, shows the original EXPLAIN,
// re-optimizes it round by round, and compares execution times. It is
// written entirely against the public reopt.Session API.
//
// Usage:
//
//	reopt -db ott -sql "SELECT COUNT(*) FROM r1, r2 WHERE r1.a = 0 AND r2.a = 1 AND r1.b = r2.b"
//	reopt -db tpch -z 1 -query 9       # TPC-H template Q9 on the skewed DB
//	reopt -db ott                       # a generated 5-table OTT query
//	reopt -db ott -timeout 20ms         # budget the whole re-optimization
//	reopt -db ott -membudget 67108864   # cap values materialized per validation
//	reopt -db ott -maxinflight 2 -queuedepth 4  # bound concurrent session calls
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"reopt"
)

func main() {
	var (
		db      = flag.String("db", "ott", "database: ott, tpch, or tpcds")
		z       = flag.Float64("z", 0, "TPC-H skew (0 uniform, 1 skewed)")
		seed    = flag.Int64("seed", 42, "random seed")
		sqlText = flag.String("sql", "", "SQL query (SPJ dialect); empty picks a demo query")
		queryID = flag.Int("query", 0, "TPC-H template number (with -db tpch)")
		analyze = flag.Bool("analyze", false, "print EXPLAIN ANALYZE (estimated vs actual rows)")
		cache   = flag.Int("cache", 0, "workload validation-cache budget in subtree entries (0 = off)")
		timeout = flag.Duration("timeout", 0, "re-optimization time budget (0 = none); returns best-so-far on expiry")

		maxInFlight = flag.Int("maxinflight", 0, "admission gate: at most this many expensive session calls run at once (0 = unlimited); excess calls queue, then shed")
		queueDepth  = flag.Int("queuedepth", 0, "admission queue: how many calls beyond -maxinflight wait FIFO before shedding (only with -maxinflight > 0)")
		memBudget   = flag.Int64("membudget", 0, "memory budget in values materialized per validation (0 = unlimited); breaches degrade the re-optimization to the best plan found so far")
	)
	flag.Parse()
	if err := run(*db, *z, *seed, *sqlText, *queryID, *analyze, *cache, *timeout, *maxInFlight, *queueDepth, *memBudget); err != nil {
		fmt.Fprintln(os.Stderr, "reopt:", err)
		os.Exit(1)
	}
}

func run(db string, z float64, seed int64, sqlText string, queryID int, analyze bool, cacheEntries int, timeout time.Duration, maxInFlight, queueDepth int, memBudget int64) error {
	ctx := context.Background()
	var cat *reopt.Catalog
	var err error
	var q *reopt.Query

	fmt.Printf("building %s database...\n", db)
	switch db {
	case "ott":
		cat, err = reopt.GenerateOTT(reopt.OTTConfig{Seed: seed})
	case "tpch":
		cat, err = reopt.GenerateTPCH(reopt.TPCHConfig{Z: z, Seed: seed})
	case "tpcds":
		cat, err = reopt.GenerateTPCDS(reopt.TPCDSConfig{Seed: seed})
	default:
		return fmt.Errorf("unknown database %q", db)
	}
	if err != nil {
		return err
	}

	// One Session owns the optimizer and (when -cache is set) the
	// cross-query validation cache. A longer
	// session — e.g. a script driving many queries — would reuse counts
	// between re-optimizations through that cache.
	var opts []reopt.SessionOption
	if cacheEntries > 0 {
		opts = append(opts, reopt.WithSharedCache(cacheEntries))
	}
	if maxInFlight > 0 {
		opts = append(opts, reopt.WithMaxInFlight(maxInFlight, queueDepth))
	}
	if memBudget > 0 {
		opts = append(opts, reopt.WithMemoryBudget(memBudget))
	}
	s, err := reopt.Open(cat, opts...)
	if err != nil {
		return err
	}

	switch {
	case sqlText != "":
		q, err = s.Parse(sqlText)
	case db == "ott":
		var qs []*reopt.Query
		qs, err = reopt.OTTQueries(cat, reopt.OTTQueryConfig{
			NumTables: 5, SameConstant: 4, Count: 1, Seed: seed,
		})
		if err == nil {
			q = qs[0]
		}
	case db == "tpch":
		id := queryID
		if id == 0 {
			id = 9
		}
		var qs []*reopt.Query
		qs, err = reopt.TPCHQueries(cat, id, 1, seed)
		if err == nil {
			q = qs[0]
		}
	case db == "tpcds":
		var qs []*reopt.Query
		qs, err = reopt.TPCDSQueries(cat, "50'", 1, seed)
		if err == nil {
			q = qs[0]
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("\nquery:\n  %s\n", q)
	orig, err := s.Optimize(q)
	if err != nil {
		return err
	}
	fmt.Printf("\noriginal plan (cost=%.1f):\n%s", orig.Cost(), orig.Explain())
	origRun, err := s.Execute(ctx, orig, reopt.ExecOptions{CountOnly: true})
	if err != nil {
		return err
	}
	fmt.Printf("original execution: %d rows in %v (%d tuples processed)\n",
		origRun.Count, origRun.Duration, origRun.Counters.Tuples)
	if analyze {
		fmt.Printf("\nEXPLAIN ANALYZE (original):\n%s", reopt.ExplainAnalyze(orig, origRun))
	}

	var ropts []reopt.ReoptOption
	if timeout > 0 {
		ropts = append(ropts, reopt.WithTimeout(timeout))
	}
	res, err := s.Reoptimize(ctx, q, ropts...)
	if err != nil {
		return err
	}
	fmt.Printf("\nre-optimization: %d plan(s) in %d round(s), converged=%v, overhead=%v\n",
		res.NumPlans, len(res.Rounds), res.Converged, res.ReoptTime)
	for i, rd := range res.Rounds {
		fmt.Printf("  round %d: transform=%s covered=%v gamma+=%d cost_s=%.1f\n",
			i+1, rd.Transform, rd.CoveredByPrevious, rd.GammaAdded, rd.SampledCost)
	}
	fmt.Printf("\nfinal plan:\n%s", res.Final.Explain())
	finalRun, err := s.Execute(ctx, res.Final, reopt.ExecOptions{CountOnly: true})
	if err != nil {
		return err
	}
	fmt.Printf("re-optimized execution: %d rows in %v (%d tuples processed)\n",
		finalRun.Count, finalRun.Duration, finalRun.Counters.Tuples)
	if analyze {
		fmt.Printf("\nEXPLAIN ANALYZE (re-optimized):\n%s", reopt.ExplainAnalyze(res.Final, finalRun))
	}
	if cacheEntries > 0 {
		hits, misses := s.CacheStats()
		fmt.Printf("\nvalidation cache: %d hits, %d misses\n", hits, misses)
	}
	if origRun.Duration > 0 {
		fmt.Printf("\nspeedup: %.2fx\n",
			float64(origRun.Duration)/float64(finalRun.Duration+1))
	}
	return nil
}
