package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sampling"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
)

// TestOptimizerPlansFitSkeleton pins the contract that makes the count-only
// skeleton engine the one validator: every plan Algorithm 1 validates — the
// initial plan and every round's plan of Reoptimize, and of
// ReoptimizeMultiSeedCtx, whose extra seeds come from the randomized search —
// is inside the engine's contract, so Prepared.Count counts it with no
// error. The shapes: OTT equality and BETWEEN chains, the three
// template_zipf templates and every TPC-H template (the benchmark's),
// every TPC-DS template, a cross product, a FROM entry no predicate joins,
// GROUP BY queries, and a chain longer than the DP threshold.
func TestOptimizerPlansFitSkeleton(t *testing.T) {
	orig := estimatePlansFn
	defer func() { estimatePlansFn = orig }()
	checked := 0
	label := ""
	estimatePlansFn = func(ctx context.Context, ps []*plan.Plan, cat *catalog.Catalog, cache sampling.Cache) ([]*sampling.Estimate, error) {
		for _, p := range ps {
			root := p.Root
			if agg, ok := root.(*plan.AggregateNode); ok {
				root = agg.Child // only join cardinalities are validated
			}
			if _, err := mustPrepare(t, p.Query, nil, cat, 0).Count(ctx, root); err != nil {
				t.Fatalf("%s: plan %s is outside the skeleton's contract: %v", label, p.Fingerprint(), err)
			}
			checked++
		}
		return orig(ctx, ps, cat, cache)
	}

	ws := benchShapedWorkloads(t)
	tpchW := &ws[len(ws)-1]
	for _, src := range groupBySQL {
		tpchW.queries = append(tpchW.queries, mustParse(t, src, tpchW.cat))
	}
	smallW := &ws[0]
	for _, src := range []string{
		"SELECT COUNT(*) FROM r1 AS t01, r2 AS t02",
		"SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a = 3 AND r3.a = 5 AND r1.b = r2.b",
	} {
		smallW.queries = append(smallW.queries, mustParse(t, src, smallW.cat))
	}

	dsCat, err := tpcds.Generate(tpcds.Config{StoreSales: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var ds []*sql.Query
	for _, tpl := range tpcds.Templates() {
		ds = append(ds, mustParse(t, tpl.Gen(rng), dsCat))
	}
	ws = append(ws, shapedWorkload{"tpcds", dsCat, ds})

	const long = optimizer.DefaultDPThreshold + 2
	longCat, err := ott.Generate(ott.Config{Seed: 2, NumTables: long, RowsPerValue: 4})
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]int, long)
	for i := range tables {
		tables[i] = i + 1
	}
	ws = append(ws, shapedWorkload{"long_chain", longCat, []*sql.Query{
		mustParse(t, chainSQL(tables, func(pos int) string { return fmt.Sprintf("= %d", pos%3) }), longCat),
	}})

	queries := 0
	for _, w := range ws {
		r := New(optimizer.New(w.cat, optimizer.DefaultConfig()), w.cat)
		for qi, q := range w.queries {
			queries++
			label = fmt.Sprintf("%s query %d", w.name, qi)
			if _, err := r.Reoptimize(q); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			label += " multi-seed"
			if _, err := r.ReoptimizeMultiSeedCtx(context.Background(), q, 3); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
	if checked < 3*queries {
		t.Fatalf("only %d plans checked over %d queries", checked, queries)
	}
	t.Logf("%d validated plans of %d queries fit the skeleton", checked, queries)
}

// groupBySQL are GROUP BY queries over the tpch_batch catalog of
// benchShapedWorkloads, whose plans end in a hash aggregate.
var groupBySQL = []string{
	`SELECT COUNT(*) FROM customer, orders, nation
	 WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey
	 GROUP BY n_name`,
	`SELECT COUNT(*) FROM lineitem, orders
	 WHERE l_orderkey = o_orderkey AND o_orderstatus = 'F'
	 GROUP BY o_orderpriority ORDER BY o_orderpriority LIMIT 3`,
}

func mustParse(t *testing.T, src string, cat *catalog.Catalog) *sql.Query {
	t.Helper()
	q, err := sql.Parse(src, cat)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}
