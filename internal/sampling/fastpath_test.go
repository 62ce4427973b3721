package sampling

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// TestFastPathMatchesVolcano: the count-only skeleton engine must
// produce estimates identical to the general Volcano executor — same
// Delta, same SampleRows, key for key — on real workloads, both with a
// fresh cache and with a cache warmed by earlier plans of the same
// query workload.
func TestFastPathMatchesVolcano(t *testing.T) {
	ottCat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	ottQs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	tpchCat, err := tpch.Generate(tpch.Config{Customers: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var tpchQs []*sql.Query
	for _, id := range tpch.QueryIDs() {
		qs, err := tpch.Instances(tpchCat, id, 1, 17)
		if err != nil {
			t.Fatal(err)
		}
		tpchQs = append(tpchQs, qs...)
	}

	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		qs   []*sql.Query
	}{
		{"ott", ottCat, ottQs},
		{"tpch", tpchCat, tpchQs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := optimizer.New(tc.cat, optimizer.DefaultConfig())
			cache := perRun()
			for qi, q := range tc.qs {
				p, err := opt.Optimize(q, nil)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				fastFresh, err := estimateOne(p, tc.cat, nil)
				if err != nil {
					t.Fatalf("query %d fast: %v", qi, err)
				}
				fastCached, err := estimateOne(p, tc.cat, cache)
				if err != nil {
					t.Fatalf("query %d cached: %v", qi, err)
				}
				slow := volcanoEstimate(t, p, tc.cat)
				compareEstimates(t, tc.name, qi, "fresh", fastFresh, slow)
				compareEstimates(t, tc.name, qi, "cached", fastCached, slow)
				// A second cached run must serve everything from cache and
				// still agree (cross-round reuse correctness).
				again, err := estimateOne(p, tc.cat, cache)
				if err != nil {
					t.Fatalf("query %d recached: %v", qi, err)
				}
				compareEstimates(t, tc.name, qi, "recached", again, slow)
			}
			if cache.Len() == 0 {
				t.Error("validation cache recorded nothing")
			}
		})
	}
}

// TestEstimateRejectsUnsupportedShape: a hand-built plan whose join
// predicates are not drawn from Query.Joins is outside the count
// engine's contract, so its validation fails with ErrUnsupportedPlan and
// stores nothing. The general executor, which only reads the plan's own
// predicates, still counts it as the well-formed plan.
func TestEstimateRejectsUnsupportedShape(t *testing.T) {
	ottCat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	ottQs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: 2, SameConstant: 2, Count: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(ottCat, optimizer.DefaultConfig())
	p, err := opt.Optimize(ottQs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the query's join list: the plan's join now applies predicates
	// the query does not have.
	stripped := *ottQs[0]
	stripped.Joins = nil
	bad := &plan.Plan{Root: p.Root, Query: &stripped}
	checkIsolated(t, "stripped join list", ottCat, []*plan.Plan{p}, bad, 0, executor.ErrUnsupportedPlan)
	est, err := estimateOne(p, ottCat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "ott", 0, "stripped join list", est, volcanoEstimate(t, bad, ottCat))
}

// TestFastPathDeterministicAcrossWorkers: the workers are concurrent
// callers, each validating on its own goroutine. The Delta and SampleRows
// maps must be *identical* — same keys, bit-for-bit same float64 values —
// to a lone sequential caller's, whether the concurrent callers warm one
// shared cache across several plans of the same workload (so
// materializations one caller cached feed another's joins) or their own.
func TestFastPathDeterministicAcrossWorkers(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 11, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 5, SameConstant: 4, Count: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	plans := make([]*plan.Plan, len(qs))
	base := make([]*Estimate, len(qs))
	seq := perRun()
	for qi, q := range qs {
		if plans[qi], err = opt.Optimize(q, nil); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if base[qi], err = estimateOne(plans[qi], cat, seq); err != nil {
			t.Fatalf("query %d sequential: %v", qi, err)
		}
	}
	for _, shared := range []bool{true, false} {
		cache := perRun()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := cache
				if !shared {
					c = perRun()
				}
				for k := range plans {
					qi := (k + w) % len(plans)
					est, err := estimateOne(plans[qi], cat, c)
					if err != nil {
						t.Errorf("shared=%v caller %d query %d: %v", shared, w, qi, err)
						return
					}
					if !reflect.DeepEqual(est.Sets, base[qi].Sets) {
						t.Errorf("shared=%v caller %d query %d: Sets diverged from the sequential caller's:\n%v\nvs\n%v",
							shared, w, qi, est.Sets, base[qi].Sets)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestEstimateRejectsUnresolvableSchema: a query whose join list names a
// column its table does not have makes the engine's boundary-column
// gather unresolvable — a schema-resolution failure of the plan, not an
// engine failure — so its validation fails with ErrUnsupportedPlan and
// stores nothing, while the plans validated beside it succeed. The
// general executor only looks at the plan's own predicates, so it counts
// the plan as the well-formed one.
func TestEstimateRejectsUnresolvableSchema(t *testing.T) {
	cat, err := ott.Generate(ott.Config{Seed: 5, RowsPerValue: 25})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ott.Queries(cat, ott.QueryConfig{NumTables: 3, SameConstant: 3, Count: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	p, err := opt.Optimize(qs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	q2 := *qs[0]
	q2.Joins = append(append([]sql.JoinPred(nil), q2.Joins...), sql.JoinPred{
		Left:  sql.ColRef{Table: q2.Tables[0].Alias, Column: "no_such_column"},
		Right: sql.ColRef{Table: q2.Tables[1].Alias, Column: q2.Joins[0].Right.Column},
	})
	broken := &plan.Plan{Root: p.Root, Query: &q2}
	checkIsolated(t, "phantom join column", cat, []*plan.Plan{p}, broken, 0, executor.ErrUnsupportedPlan)
	est, err := estimateOne(p, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "ott", 0, "phantom join column", est, volcanoEstimate(t, broken, cat))
}

func compareEstimates(t *testing.T, workload string, qi int, mode string, fast, slow *Estimate) {
	t.Helper()
	fastDelta, fastRows := byKey(fast)
	slowDelta, slowRows := byKey(slow)
	if len(fast.Sets) != len(slow.Sets) || len(fastDelta) != len(slowDelta) {
		t.Errorf("%s query %d (%s): fast path has %d sets (%d keys), volcano %d (%d keys)",
			workload, qi, mode, len(fast.Sets), len(fastDelta), len(slow.Sets), len(slowDelta))
	}
	for k, v := range slowDelta {
		if fv, ok := fastDelta[k]; !ok || fv != v {
			t.Errorf("%s query %d (%s): Delta[%q] fast=%v volcano=%v",
				workload, qi, mode, k, fastDelta[k], v)
		}
	}
	for k, v := range slowRows {
		if fv, ok := fastRows[k]; !ok || fv != v {
			t.Errorf("%s query %d (%s): SampleRows[%q] fast=%v volcano=%v",
				workload, qi, mode, k, fastRows[k], v)
		}
	}
	for _, s := range fast.Sets {
		if k := keyOf(slow, s.Mask); s.Key != k {
			t.Errorf("%s query %d (%s): set %#b keyed %q, volcano %q", workload, qi, mode, s.Mask, s.Key, k)
		}
	}
}

// byKey renders an estimate's sets as maps from canonical key to
// estimated rows and to raw sample count.
func byKey(est *Estimate) (map[string]float64, map[string]int64) {
	delta, rows := map[string]float64{}, map[string]int64{}
	for _, s := range est.Sets {
		delta[s.Key], rows[s.Key] = s.Rows, s.SampleRows
	}
	return delta, rows
}

// keyOf returns the canonical key est holds for the set mask.
func keyOf(est *Estimate, mask uint64) string {
	for _, s := range est.Sets {
		if s.Mask == mask {
			return s.Key
		}
	}
	return ""
}

// TestExactnessRuleForHandBuiltPlans: a mask-keyed sub-result is valid
// only for a subtree that applies exactly the query's predicates among
// its relations. A hand-built plan that leaves the cycle-closing
// predicate out of the join where it crosses (a join tree has no higher
// place to apply it), or applies a predicate the query does not have,
// computes something else for that relation set, so it is outside the
// count engine's contract: its validation fails with ErrUnsupportedPlan
// and leaves nothing in the cache that an optimizer-built plan of the
// same relation set could be served. The general executor, running the
// tree as written, shows the difference is real.
func TestExactnessRuleForHandBuiltPlans(t *testing.T) {
	cat := catalog.New()
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"x", "y", "z", "w"} {
		tab := storage.NewTable(name, rel.NewSchema(
			rel.Column{Name: "k", Kind: rel.KindInt}, rel.Column{Name: "v", Kind: rel.KindInt}))
		for i := 0; i < 120; i++ {
			tab.MustAppend(rel.Row{rel.Int(rng.Int63n(12)), rel.Int(rng.Int63n(3))})
		}
		cat.MustAddTable(tab)
	}
	if err := cat.AnalyzeAll(stats.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	cat.SetSampleRatio(1)
	cat.BuildSamples(4)
	q, err := sql.Parse("SELECT COUNT(*) FROM x, y, z, w WHERE x.k = y.k AND y.k = z.k AND x.v = z.v AND z.k = w.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(name string) plan.Node {
		tab, _ := cat.Table(name)
		return &plan.ScanNode{Alias: name, Table: name, Access: plan.SeqScan, OutSchema: tab.Schema()}
	}
	join := func(l, r plan.Node, preds ...sql.JoinPred) plan.Node {
		return &plan.JoinNode{Kind: plan.HashJoin, Left: l, Right: r, Preds: preds, OutSchema: l.Schema().Concat(r.Schema())}
	}
	xy, yz, xz, zw := q.Joins[0], q.Joins[1], q.Joins[2], q.Joins[3]
	extra := sql.JoinPred{Left: sql.ColRef{Table: "x", Column: "v"}, Right: sql.ColRef{Table: "y", Column: "v"}}
	// The same tree applying exactly the query's predicates, and the
	// optimizer's own plan: what the cache may serve.
	exact := []*plan.Plan{{Root: join(join(join(scan("x"), scan("y"), xy), scan("z"), xz, yz), scan("w"), zw), Query: q}}
	p, err := optimizer.New(cat, optimizer.DefaultConfig()).Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact = append(exact, p)
	want, err := estimatePlans(exact, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range exact {
		compareEstimates(t, "cycle", i, "exact plan", want[i], volcanoEstimate(t, p, cat))
	}
	for name, root := range map[string]plan.Node{
		"cycle-closing predicate left out":  join(join(join(scan("x"), scan("y"), xy), scan("z"), yz), scan("w"), zw),
		"predicate the query does not have": join(join(join(scan("x"), scan("y"), xy, extra), scan("z"), yz, xz), scan("w"), zw),
	} {
		handBuilt := &plan.Plan{Root: root, Query: q}
		if _, err := mustPrepare(t, q, nil, cat).Count(context.Background(), root); !errors.Is(err, executor.ErrUnsupportedPlan) {
			t.Fatalf("%s: count engine: %v, want ErrUnsupportedPlan", name, err)
		}
		checkIsolated(t, name, cat, exact, handBuilt, 0, executor.ErrUnsupportedPlan)
		// A cache the inexact plan failed on serves the exact plans what
		// they count uncached.
		cache := perRun()
		if _, err := estimateOne(handBuilt, cat, cache); !errors.Is(err, executor.ErrUnsupportedPlan) {
			t.Fatalf("%s: %v, want ErrUnsupportedPlan", name, err)
		}
		served, err := estimatePlans(exact, cat, cache)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			compareEstimates(t, "cycle", i, "exact plan after: "+name, served[i], want[i])
		}
		key := plan.CanonicalSet([]string{"x", "y", "z"})
		_, wantRows := byKey(want[0])
		_, inexactRows := byKey(volcanoEstimate(t, handBuilt, cat))
		if c, ok := wantRows[key]; !ok || c == inexactRows[key] {
			t.Fatalf("%s: both trees count {x,y,z} alike (%d rows): the data does not exercise the rule", name, c)
		}
	}
}

// --- The general executor as the oracle ---
//
// The general executor counts a plan's sample-execution skeleton tuple at
// a time and is what the skeleton engine is held to; it validates nothing
// outside the tests.

// rewrite converts a physical plan into its sample-execution skeleton
// for the general executor: sequential scans, hash joins, and no
// aggregate (only join cardinalities are validated).
func rewrite(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.ScanNode:
		c := *t
		c.Access, c.IndexColumn = plan.SeqScan, ""
		return &c
	case *plan.JoinNode:
		c := *t
		c.Kind, c.Left, c.Right = plan.HashJoin, rewrite(t.Left), rewrite(t.Right)
		return &c
	case *plan.AggregateNode:
		return rewrite(t.Child)
	}
	return n
}

// volcanoEstimate is the estimate the general executor's counts of p's
// skeleton over the samples imply: per node, its count under the Γ key of
// its relations, scaled by their factors |R| / |R^s| multiplied in leaf
// order, with the zero-count floor — what EstimatePlans must return
// bit for bit.
func volcanoEstimate(t testing.TB, p *plan.Plan, cat *catalog.Catalog) *Estimate {
	t.Helper()
	skeleton := rewrite(p.Root)
	res, err := executor.RunCtx(context.Background(), &plan.Plan{Root: skeleton, Query: p.Query}, cat,
		executor.Options{CountOnly: true, Binder: cat.Sample})
	if err != nil {
		t.Fatalf("volcano: %v", err)
	}
	scale := map[string]float64{}
	for _, tr := range p.Query.Tables {
		base, err := cat.Table(tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cat.Sample(tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		scale[tr.Alias] = 1 / cat.SampleRatio()
		if s.NumRows() > 0 {
			scale[tr.Alias] = float64(base.NumRows()) / float64(s.NumRows())
		}
	}
	est := &Estimate{}
	plan.Walk(skeleton, func(n plan.Node) {
		aliases := n.Aliases()
		f := 1.0
		var mask uint64
		for _, a := range aliases {
			f *= scale[a]
			mask |= 1 << uint(slices.IndexFunc(p.Query.Tables, func(tr sql.TableRef) bool { return tr.Alias == a }))
		}
		set := optimizer.SetRows{Mask: mask, Key: plan.CanonicalSet(aliases), Rows: float64(res.NodeRows[n]) * f, SampleRows: res.NodeRows[n]}
		if set.SampleRows == 0 {
			set.Rows = 0.5 * f
		}
		est.Sets = append(est.Sets, set)
	})
	return est
}
