package reopt_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §3 for the index). Each iteration rebuilds
// the experiment from scratch at a reduced scale and regenerates the
// figure's series; run a single iteration with
//
//	go test -bench=Fig10 -benchtime=1x
//
// and the full sweep with `go test -bench=. -benchmem`. The experiment
// binary (cmd/experiments) runs the same code at full scale.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"reopt"
	"reopt/internal/ballsim"
	"reopt/internal/executor"
	"reopt/internal/experiments"
	"reopt/internal/plan"
	"reopt/internal/server"
	"reopt/internal/sql"
	"reopt/reoptclient"
)

func benchConfig() experiments.Config {
	return experiments.Config{
		TPCHCustomers:   300,
		OTTRowsPerValue: 25,
		DSStoreSales:    6000,
		Instances:       1,
		OTT4Count:       3,
		OTT5Count:       3,
		Seed:            42,
	}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(context.Background(), benchConfig())
		tab, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 && id != "fig14" && id != "fig15" {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig3SN regenerates Figure 3 (S_N vs N).
func BenchmarkFig3SN(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4TPCHUniform regenerates Figure 4 (TPC-H z=0 runtimes).
func BenchmarkFig4TPCHUniform(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5PlanCounts regenerates Figure 5 (plan counts, z=0).
func BenchmarkFig5PlanCounts(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6ReoptOverhead regenerates Figure 6 (overhead, z=0).
func BenchmarkFig6ReoptOverhead(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7TPCHSkewed regenerates Figure 7 (TPC-H z=1 runtimes).
func BenchmarkFig7TPCHSkewed(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8PlanCountsSkewed regenerates Figure 8 (plan counts, z=1).
func BenchmarkFig8PlanCountsSkewed(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9ReoptOverheadSkewed regenerates Figure 9 (overhead, z=1).
func BenchmarkFig9ReoptOverheadSkewed(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10OTT4Join regenerates Figure 10 (OTT 4-join runtimes).
func BenchmarkFig10OTT4Join(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11OTT5Join regenerates Figure 11 (OTT 5-join runtimes).
func BenchmarkFig11OTT5Join(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12SystemA regenerates Figure 12 (OTT on system A).
func BenchmarkFig12SystemA(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13SystemB regenerates Figure 13 (OTT on system B).
func BenchmarkFig13SystemB(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14PerRoundTPCH regenerates Figure 14 (per-round runtimes).
func BenchmarkFig14PerRoundTPCH(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFig15PerRoundOTT regenerates Figure 15 (per-round runtimes).
func BenchmarkFig15PerRoundOTT(b *testing.B) { benchFigure(b, "fig15") }

// BenchmarkFig16OTTPlanCounts regenerates Figure 16 (OTT plan counts).
func BenchmarkFig16OTTPlanCounts(b *testing.B) { benchFigure(b, "fig16") }

// BenchmarkFig17OTT4Overhead regenerates Figure 17 (OTT 4-join overhead).
func BenchmarkFig17OTT4Overhead(b *testing.B) { benchFigure(b, "fig17") }

// BenchmarkFig18OTT5Overhead regenerates Figure 18 (OTT 5-join overhead).
func BenchmarkFig18OTT5Overhead(b *testing.B) { benchFigure(b, "fig18") }

// BenchmarkFig19TPCDS regenerates Figure 19 (TPC-DS runtimes).
func BenchmarkFig19TPCDS(b *testing.B) { benchFigure(b, "fig19") }

// BenchmarkFig20TPCDSPlanCounts regenerates Figure 20 (TPC-DS plans).
func BenchmarkFig20TPCDSPlanCounts(b *testing.B) { benchFigure(b, "fig20") }

// BenchmarkEx2MultidimHistogram regenerates the §5.3.1 analysis.
func BenchmarkEx2MultidimHistogram(b *testing.B) { benchFigure(b, "ex2") }

// BenchmarkAppBBounds regenerates the Appendix B bound table.
func BenchmarkAppBBounds(b *testing.B) { benchFigure(b, "appB") }

// BenchmarkMidQueryComparison regenerates the compile-time vs runtime
// re-optimization extension table.
func BenchmarkMidQueryComparison(b *testing.B) { benchFigure(b, "midquery") }

// BenchmarkPlanDiagram regenerates the plan-diagram extension table.
func BenchmarkPlanDiagram(b *testing.B) { benchFigure(b, "plandiag") }

// BenchmarkEstimatorComparison regenerates the histogram vs sampling vs
// sketch comparison table.
func BenchmarkEstimatorComparison(b *testing.B) { benchFigure(b, "estimators") }

// --- Micro-benchmarks of the core machinery ---

// BenchmarkOptimizeOTT times one DP optimization of a 5-table OTT query.
func BenchmarkOptimizeOTT(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(qs[0], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReoptimizeOTT times the full Algorithm 1 loop (optimization,
// sampling validation, convergence) on a 5-table OTT query.
func BenchmarkReoptimizeOTT(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	r := reopt.NewReoptimizer(opt, cat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reoptimize(qs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingValidation times one skeleton run over the samples.
func BenchmarkSamplingValidation(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	p, err := opt.Optimize(qs[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := reopt.Open(cat)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Validate(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSN1000 times the exact Equation (1) computation at N=1000.
func BenchmarkSN1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ballsim.SN(1000) < 30 {
			b.Fatal("SN(1000) implausible")
		}
	}
}

// BenchmarkSamplingEstimatePlan times one sample-skeleton validation of a
// 5-table OTT plan — the hot path of Algorithm 1 (the re-optimization
// overhead of Figures 6, 9, 17 and 18). Allocations are reported so the
// count-only fast path's allocation win stays visible in the trajectory.
func BenchmarkSamplingEstimatePlan(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	p, err := opt.Optimize(qs[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := reopt.Open(cat)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Validate(ctx, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Validate(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingEstimatePlanWorkers1 is the same hot path through
// Session.Validate with the deprecated WithWorkers(1). It used to be the
// sequential rung beside a fanned-out default; both now run the one
// engine, and the name stays so the series in BENCH_*.json continues.
func BenchmarkSamplingEstimatePlanWorkers1(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	p, err := opt.Optimize(qs[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := reopt.Open(cat, reopt.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Validate(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinKeys times a count-only two-table hash join through
// the general executor, isolating the cost of join-key handling (string
// concatenation in the seed, collision-checked 64-bit hashes after).
func BenchmarkHashJoinKeys(b *testing.B) {
	cat := reopt.NewCatalog()
	l := reopt.NewTable("l", reopt.NewSchema(
		reopt.Column{Name: "k", Kind: reopt.KindInt},
		reopt.Column{Name: "k2", Kind: reopt.KindInt},
	))
	r := reopt.NewTable("r", reopt.NewSchema(
		reopt.Column{Name: "k", Kind: reopt.KindInt},
		reopt.Column{Name: "k2", Kind: reopt.KindInt},
	))
	for i := 0; i < 4000; i++ {
		l.MustAppend(reopt.Row{reopt.Int(int64(i % 512)), reopt.Int(int64(i % 7))})
		r.MustAppend(reopt.Row{reopt.Int(int64(i % 512)), reopt.Int(int64(i % 7))})
	}
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	root := &plan.JoinNode{
		Kind:  plan.HashJoin,
		Left:  &plan.ScanNode{Alias: "l", Table: "l", Access: plan.SeqScan, OutSchema: l.Schema()},
		Right: &plan.ScanNode{Alias: "r", Table: "r", Access: plan.SeqScan, OutSchema: r.Schema()},
		Preds: []sql.JoinPred{
			{Left: sql.ColRef{Table: "l", Column: "k"}, Right: sql.ColRef{Table: "r", Column: "k"}},
			{Left: sql.ColRef{Table: "l", Column: "k2"}, Right: sql.ColRef{Table: "r", Column: "k2"}},
		},
		OutSchema: l.Schema().Concat(r.Schema()),
	}
	p := &plan.Plan{Root: root, Query: &sql.Query{CountStar: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := executor.Run(p, cat, executor.Options{CountOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Count == 0 {
			b.Fatal("hash join produced no rows")
		}
	}
}

// benchParallelisms is the worker/parallelism sweep shared by the
// concurrency benchmarks: 1, 2 and NumCPU, deduplicated so hosts with
// 1 or 2 CPUs do not emit colliding "#01" sub-benchmark names — those
// would break the BENCH_baseline.json series across runner shapes.
func benchParallelisms() []int {
	ps := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		ps = append(ps, n)
	}
	return ps
}

// BenchmarkReoptimizeMultiSeed times the §7 multi-seed variant (4
// seeded runs of Algorithm 1), whose seeds validate through one cache:
// subtrees shared between the seeds execute once. The workers axis sets the deprecated Options.Workers, which
// selects nothing; the rungs stay so the series continues and must read
// the same.
func BenchmarkReoptimizeMultiSeed(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	for _, w := range benchParallelisms() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			r := reopt.NewReoptimizer(opt, cat)
			r.Opts.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.ReoptimizeMultiSeedCtx(context.Background(), qs[0], 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionWorkloadParallel tracks concurrent-session
// throughput: one Session with a shared validation cache re-optimizes a
// 6-query OTT workload through ReoptimizeWorkload at increasing
// parallelism. At parallelism=1 it measures the Session layer's
// overhead against the sequential loop; higher settings expose the
// shared cache and batch engine under real concurrent traffic (a
// 1-core host shows parity).
func BenchmarkSessionWorkloadParallel(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, par := range benchParallelisms() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			// Budget and admission enabled but unconstrained: the gate
			// and charging overheads must stay inside the regression
			// envelope even when every call pays them.
			s, err := reopt.Open(cat, reopt.WithSharedCache(0),
				reopt.WithMemoryBudget(1<<50), reopt.WithMaxInFlight(1<<20, 1<<20))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ReoptimizeWorkload(ctx, qs, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadScheduler measures ReoptimizeWorkload on the
// repeated-OTT workload — two query templates, each arriving three times,
// the §6 experiment shape where one parametrized query hits the engine
// from many users — with per-query validation caches, every query
// validating on its own worker's goroutine. Each iteration opens a fresh
// session: the cold-workload shape (BenchmarkSessionWorkloadParallel
// covers the warm steady state). The name is kept from the deleted
// workload scheduler, whose "off" rows these are.
func BenchmarkWorkloadScheduler(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	base, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var qs []*reopt.Query
	for i := 0; i < 3; i++ {
		qs = append(qs, base...)
	}
	ctx := context.Background()
	for _, par := range benchParallelisms() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Enabled-but-unconstrained failure knobs, as above.
				s, err := reopt.Open(cat,
					reopt.WithMemoryBudget(1<<50),
					reopt.WithMaxInFlight(1<<20, 1<<20))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.ReoptimizeWorkload(ctx, qs, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zipfQueries replays parametrized traffic: three query templates over
// the OTT tables whose only varying part is a range constant,
// instantiated arrivals times with Zipf-skewed constants and Zipf-skewed
// template choice — the production shape, where a handful of templates
// dominate and most instances differ only in their constants. Constants
// stay selective (the loosest is ~1/4 of the domain) so the sample scans
// they guard dominate the joins above them.
func zipfQueries(tb testing.TB, cat *reopt.Catalog, arrivals int) []*reopt.Query {
	tb.Helper()
	// Anchor constants sit outside every range constant's reach, so the
	// joins are empty — the paper's OTT queries are empty by
	// construction too — and the validated work is the scans.
	templates := []string{
		"SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a BETWEEN 1 AND %d AND r1.b BETWEEN 1 AND %d AND r2.a = 350 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b",
		"SELECT COUNT(*) FROM r1, r2, r3 WHERE r2.a BETWEEN 1 AND %d AND r2.b BETWEEN 1 AND %d AND r1.a = 390 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b",
		"SELECT COUNT(*) FROM r1, r3, r4 WHERE r3.a BETWEEN 1 AND %d AND r3.b BETWEEN 1 AND %d AND r1.a = 390 AND r4.a = 27 AND r1.b = r3.b AND r3.b = r4.b",
	}
	rng := rand.New(rand.NewSource(11))
	consts := rand.NewZipf(rng, 1.07, 1.0, 38)                     // constant skew: few constants dominate
	tmpls := rand.NewZipf(rng, 1.4, 1.0, uint64(len(templates)-1)) // template skew
	qs := make([]*reopt.Query, arrivals)
	for i := range qs {
		k := 2 + int(consts.Uint64()) // range constant k in [2, 40]
		q, err := reopt.Parse(fmt.Sprintf(templates[tmpls.Uint64()], k, k), cat)
		if err != nil {
			tb.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// BenchmarkTemplateWorkload measures validation of Zipf-skewed
// parametrized traffic (zipfQueries) through a shared WorkloadCache:
// exact-constant repeats replay cached counts, every other constant
// scans.
func BenchmarkTemplateWorkload(b *testing.B) {
	// A denser sample than the micro-benchmarks', so the scans (which
	// scale with the sample) dominate the fixed per-query optimizer cost
	// (which does not).
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{
		Seed: 1, NumTables: 4, RowsPerValue: 720,
		Domains: []int{400, 360, 320, 28}, SampleRatio: 1.0,
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := zipfQueries(b, cat, 32)
	ctx := context.Background()
	for _, par := range benchParallelisms() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := reopt.Open(cat, reopt.WithSharedCache(1024))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.ReoptimizeWorkload(ctx, qs, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidationLargeSample times one cold validation in the
// large-sample regime the hot-path series otherwise never reaches: a
// 5-table chain with one shared range on four tables and a disjoint
// range on the fifth (the shape of bench/'s ott_large workload) over
// 72k-120k-row samples, one worker, no cross-call cache. Every scan's one
// range filter is answered by the sorted sample index, so the request is
// two binary searches a scan, the compaction of its boundary column read
// as a run of the index's ordered copy (grouped by counting: the keys
// span few more values than the scan has rows), and the join
// build/probe; B/op is what one validation materializes, so the cost of
// the representation the skeleton carries between operators shows. The
// ordered copies are built by the warm-up validation, outside the
// timing, as a process's first queries build them.
func BenchmarkValidationLargeSample(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{
		Seed: 1, NumTables: 5, RowsPerValue: 3,
		Domains: []int{40000, 36000, 32000, 28000, 24000}, SampleRatio: 1.0,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := reopt.Open(cat, reopt.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	q, err := s.Parse("SELECT COUNT(*) FROM r3 AS t1, r1 AS t2, r5 AS t3, r2 AS t4, r4 AS t5" +
		" WHERE t1.a BETWEEN 3000 AND 3400 AND t2.a BETWEEN 3000 AND 3400" +
		" AND t3.a BETWEEN 15000 AND 15400 AND t4.a BETWEEN 3000 AND 3400" +
		" AND t5.a BETWEEN 3000 AND 3400" +
		" AND t1.b = t2.b AND t2.b = t3.b AND t3.b = t4.b AND t4.b = t5.b")
	if err != nil {
		b.Fatal(err)
	}
	p, err := s.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Validate(ctx, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Validate(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogBuild times one catalog generation at two of bench/'s
// workload shapes — rows, indexes, ANALYZE and samples, the bulk of
// their setup_s: ott_large (five int tables of 72k-120k rows, both
// columns indexed) and tpch_batch's skewed TPC-H (int and low-cardinality
// string columns). B/op is what one set-up allocates.
func BenchmarkCatalogBuild(b *testing.B) {
	shapes := []struct {
		name string
		gen  func() (*reopt.Catalog, error)
	}{
		{"ott_large", func() (*reopt.Catalog, error) {
			return reopt.GenerateOTT(reopt.OTTConfig{
				Seed: 1, NumTables: 5, RowsPerValue: 3,
				Domains: []int{40000, 36000, 32000, 28000, 24000}, SampleRatio: 1.0,
			})
		}},
		{"tpch", func() (*reopt.Catalog, error) {
			return reopt.GenerateTPCH(reopt.TPCHConfig{Seed: 1, Customers: 1500, Z: 1})
		}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.gen(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadCache measures what the workload-level validation
// cache buys on a workload of similar queries: "cold" re-optimizes the
// whole workload with per-query caches (every query validates from
// scratch); "warm" runs it against a pre-warmed shared WorkloadCache,
// so validations replay cached subtree counts. Estimates are identical
// either way — only the time changes.
func BenchmarkWorkloadCache(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := reopt.NewOptimizer(cat, reopt.DefaultOptimizerConfig())
	runAll := func(b *testing.B, r *reopt.Reoptimizer) {
		for _, q := range qs {
			if _, err := r.Reoptimize(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		r := reopt.NewReoptimizer(opt, cat)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAll(b, r)
		}
	})
	b.Run("warm", func(b *testing.B) {
		r := reopt.NewReoptimizer(opt, cat)
		r.Opts.Cache = reopt.NewWorkloadCache(0)
		runAll(b, r) // warm the cache once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAll(b, r)
		}
	})
}

// BenchmarkReoptdHTTP measures the daemon's serving overhead end to
// end: a full /v1/reoptimize round trip — JSON decode, parse, the
// admission gate, Algorithm 1 over the session, JSON encode — against
// an in-process httptest server, so the number excludes real network
// cost but includes everything reoptd adds on top of the library.
// Compare with BenchmarkReoptimizeOTT to read the HTTP tax directly.
// parallel=2 drives two concurrent clients through the shared tenant
// session and its cache.
func BenchmarkReoptdHTTP(b *testing.B) {
	cat, err := reopt.GenerateOTT(reopt.OTTConfig{Seed: 1, RowsPerValue: 20})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sqls := []string{qs[0].String(), qs[1].String()}
	ctx := context.Background()
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			quota := server.Quota{
				Workers: 2, MaxInFlight: 8, QueueDepth: 16,
				MemoryBudget: 1 << 50, CacheEntries: -1,
			}
			srv, err := server.New(cat, server.Config{Default: &quota})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			c := reoptclient.New(ts.URL, reoptclient.WithRetries(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < par; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						if _, err := c.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sqls[j%len(sqls)]}); err != nil {
							b.Error(err)
						}
					}(j)
				}
				wg.Wait()
			}
		})
	}
}
