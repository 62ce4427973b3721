package executor

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// skelCatalog builds three tables with join columns k (shared domain),
// a second key column k2, occasional NULL keys, and a value column for
// filters.
func skelCatalog(t testing.TB, seed int64, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	rng := rand.New(rand.NewSource(seed))
	for _, name := range []string{"t1", "t2", "t3"} {
		tab := storage.NewTable(name, rel.NewSchema(
			rel.Column{Name: "k", Kind: rel.KindInt},
			rel.Column{Name: "k2", Kind: rel.KindInt},
			rel.Column{Name: "v", Kind: rel.KindInt},
		))
		for i := 0; i < rows; i++ {
			k := rel.Int(rng.Int63n(15))
			if rng.Intn(20) == 0 {
				k = rel.Null // NULL keys must never join
			}
			tab.MustAppend(rel.Row{k, rel.Int(rng.Int63n(4)), rel.Int(rng.Int63n(100))})
		}
		cat.MustAddTable(tab)
	}
	return cat
}

// skelQuery is the logical query the skeleton plans below implement.
func skelQuery() *sql.Query {
	return &sql.Query{
		Tables: []sql.TableRef{
			{Name: "t1", Alias: "t1"}, {Name: "t2", Alias: "t2"}, {Name: "t3", Alias: "t3"},
		},
		Joins: []sql.JoinPred{
			{Left: sql.ColRef{Table: "t1", Column: "k"}, Right: sql.ColRef{Table: "t2", Column: "k"}},
			{Left: sql.ColRef{Table: "t1", Column: "k2"}, Right: sql.ColRef{Table: "t2", Column: "k2"}},
			{Left: sql.ColRef{Table: "t2", Column: "k"}, Right: sql.ColRef{Table: "t3", Column: "k"}},
		},
		Selections: []sql.Selection{
			{Col: sql.ColRef{Table: "t1", Column: "v"}, Op: sql.OpLt, Value: rel.Int(60)},
			{Col: sql.ColRef{Table: "t3", Column: "v"}, Op: sql.OpBetween, Value: rel.Int(10), Value2: rel.Int(90)},
		},
		CountStar: true,
	}
}

func skelScan(cat *catalog.Catalog, q *sql.Query, alias string) *plan.ScanNode {
	tab, err := cat.Table(alias)
	if err != nil {
		panic(err)
	}
	return &plan.ScanNode{
		Alias: alias, Table: alias, Filters: q.SelectionsOn(alias),
		Access: plan.SeqScan, OutSchema: tab.Schema(),
	}
}

// skelJoin hash-joins l and r on every predicate of q connecting them.
func skelJoin(q *sql.Query, l, r plan.Node) *plan.JoinNode {
	la, ra := l.Aliases(), r.Aliases()
	var preds []sql.JoinPred
	for _, j := range q.Joins {
		if slices.Contains(la, j.Left.Table) && slices.Contains(ra, j.Right.Table) ||
			slices.Contains(la, j.Right.Table) && slices.Contains(ra, j.Left.Table) {
			preds = append(preds, j)
		}
	}
	return &plan.JoinNode{
		Kind: plan.HashJoin, Left: l, Right: r,
		Preds:     preds,
		OutSchema: l.Schema().Concat(r.Schema()),
	}
}

// skelPlans returns the same logical query under different join orders.
func skelPlans(cat *catalog.Catalog, q *sql.Query) []*plan.Plan {
	build := func(order [3]string, leftDeep bool) *plan.Plan {
		a := skelScan(cat, q, order[0])
		b := skelScan(cat, q, order[1])
		c := skelScan(cat, q, order[2])
		var root plan.Node
		if leftDeep {
			root = skelJoin(q, skelJoin(q, a, b), c)
		} else {
			root = skelJoin(q, a, skelJoin(q, b, c))
		}
		return &plan.Plan{Root: root, Query: q}
	}
	return []*plan.Plan{
		build([3]string{"t1", "t2", "t3"}, true),
		build([3]string{"t2", "t1", "t3"}, true),
		build([3]string{"t3", "t2", "t1"}, true),
		build([3]string{"t1", "t2", "t3"}, false),
	}
}

// TestCountSkeletonMatchesVolcano: the count-only fast path must report
// exactly the per-node counts the general executor produces, across join
// orders, with and without a cross-plan cache.
func TestCountSkeletonMatchesVolcano(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cat := skelCatalog(t, seed, 400)
		q := skelQuery()
		cache := NewSkeletonCache(0, 0)
		for pi, p := range skelPlans(cat, q) {
			res, err := Run(p, cat, Options{CountOnly: true})
			if err != nil {
				t.Fatalf("seed %d plan %d volcano: %v", seed, pi, err)
			}
			for _, skel := range []*SkeletonCache{nil, cache} {
				counts, err := countSkeleton(p, cat.Table, skel)
				if err != nil {
					t.Fatalf("seed %d plan %d skeleton: %v", seed, pi, err)
				}
				plan.Walk(p.Root, func(n plan.Node) {
					if counts[n] != res.NodeRows[n] {
						t.Errorf("seed %d plan %d cached=%v node %v: skeleton %d, volcano %d",
							seed, pi, skel != nil, n.Aliases(), counts[n], res.NodeRows[n])
					}
				})
			}
		}
		if cache.Len() == 0 {
			t.Error("shared cache recorded no sub-results")
		}
	}
}

// TestCountSkeletonCacheReuses: a join order sharing subtrees with an
// already-validated plan must hit the cache (sub-result count stops
// growing for repeated subtrees) and still report correct counts.
func TestCountSkeletonCacheReuses(t *testing.T) {
	cat := skelCatalog(t, 3, 400)
	q := skelQuery()
	plans := skelPlans(cat, q)
	cache := NewSkeletonCache(0, 0)
	if _, err := countSkeleton(plans[0], cat.Table, cache); err != nil {
		t.Fatal(err)
	}
	before := cache.Len()
	// Same plan again: fully cached, no new entries.
	counts, err := countSkeleton(plans[0], cat.Table, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != before {
		t.Errorf("re-running an identical plan grew the cache: %d -> %d", before, cache.Len())
	}
	res, err := Run(plans[0], cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(plans[0].Root, func(n plan.Node) {
		if counts[n] != res.NodeRows[n] {
			t.Errorf("cached node %v: %d != %d", n.Aliases(), counts[n], res.NodeRows[n])
		}
	})
	// A swapped-leaves order shares the {t1,t2} and {t1,t2,t3} logical
	// subtrees; only genuinely new leaf signatures may be added.
	if _, err := countSkeleton(plans[1], cat.Table, cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != before {
		t.Errorf("swapped join order should reuse all subtree signatures: %d -> %d", before, cache.Len())
	}
}

// TestCountSkeletonDeterministicAcrossWorkers: the workers are the
// callers — a validation runs on the goroutine that asked for it, and
// concurrency is several of them at once. Per-node counts must be the
// sequential run's whether the concurrent callers share one cache (racing
// to compute and store the same sub-results) or hold their own, and the
// shared cache must end up holding exactly the sequential run's keys. Run
// under -race this exercises the cache's locking.
func TestCountSkeletonDeterministicAcrossWorkers(t *testing.T) {
	cat := skelCatalog(t, 7, 1500)
	plans := skelPlans(cat, skelQuery())
	base := make([]map[plan.Node]int64, len(plans))
	seqCache := NewSkeletonCache(0, 0)
	for pi, p := range plans {
		var err error
		if base[pi], err = countSkeleton(p, cat.Table, seqCache); err != nil {
			t.Fatalf("plan %d sequential: %v", pi, err)
		}
	}
	for _, shared := range []bool{true, false} {
		cache := NewSkeletonCache(0, 0)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := cache
				if !shared {
					c = NewSkeletonCache(0, 0)
				}
				// Each caller starts at a different plan, so they meet
				// on the shared subtrees from different directions.
				for k := range plans {
					pi := (k + w) % len(plans)
					got, err := countSkeleton(plans[pi], cat.Table, c)
					if err != nil {
						t.Errorf("shared=%v caller %d plan %d: %v", shared, w, pi, err)
						return
					}
					plan.Walk(plans[pi].Root, func(n plan.Node) {
						if got[n] != base[pi][n] {
							t.Errorf("shared=%v caller %d plan %d node %v: count %d, sequential %d",
								shared, w, pi, n.Aliases(), got[n], base[pi][n])
						}
					})
				}
			}(w)
		}
		wg.Wait()
		if shared && !slices.Equal(cache.Keys(), seqCache.Keys()) {
			t.Errorf("shared cache holds %d keys after concurrent callers, sequential run %d", len(cache.Keys()), len(seqCache.Keys()))
		}
	}
}

// TestCountSkeletonUnsupportedSchemaResolution: schema-resolution
// failures inside the engine — a scan filter or a query join predicate
// naming a column the scan's schema cannot resolve, as hand-built plans
// sometimes have — must surface as ErrUnsupportedPlan, the plan's own
// failure, not as an engine failure that aborts the whole call.
func TestCountSkeletonUnsupportedSchemaResolution(t *testing.T) {
	cat := skelCatalog(t, 1, 50)
	q := skelQuery()

	t.Run("filter column", func(t *testing.T) {
		p := skelPlans(cat, q)[0]
		scan := p.Root.(*plan.JoinNode).Left.(*plan.JoinNode).Left.(*plan.ScanNode)
		scan.Filters = append(scan.Filters, sql.Selection{
			Col: sql.ColRef{Table: scan.Alias, Column: "no_such_column"},
			Op:  sql.OpEq, Value: rel.Int(1),
		})
		_, err := countSkeleton(p, cat.Table, nil)
		if !errors.Is(err, ErrUnsupportedPlan) {
			t.Fatalf("want ErrUnsupportedPlan for unresolvable filter column, got %v", err)
		}
	})

	t.Run("boundary column", func(t *testing.T) {
		// The query's join list names a column t1 does not have; the
		// boundary-column gather for {t1} cannot resolve it, even though
		// the plan's own join predicates are untouched.
		q2 := skelQuery()
		q2.Joins = append(q2.Joins, sql.JoinPred{
			Left:  sql.ColRef{Table: "t1", Column: "phantom"},
			Right: sql.ColRef{Table: "t3", Column: "k2"},
		})
		p := skelPlans(cat, q2)[0]
		_, err := countSkeleton(p, cat.Table, nil)
		if !errors.Is(err, ErrUnsupportedPlan) {
			t.Fatalf("want ErrUnsupportedPlan for unresolvable boundary column, got %v", err)
		}
	})
}

// --- Hashed join key semantics (general executor) ---

type sliceIter struct {
	rows []rel.Row
	pos  int
}

func (s *sliceIter) next() (rel.Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func runJoinKinds(t *testing.T, cat *catalog.Catalog, left, right plan.Node, preds []sql.JoinPred) map[plan.JoinKind]int64 {
	t.Helper()
	out := map[plan.JoinKind]int64{}
	for _, kind := range []plan.JoinKind{plan.NestedLoop, plan.HashJoin, plan.MergeJoin} {
		p := &plan.Plan{
			Root: &plan.JoinNode{
				Kind: kind, Left: left, Right: right, Preds: preds,
				OutSchema: left.Schema().Concat(right.Schema()),
			},
			Query: &sql.Query{CountStar: true},
		}
		res, err := Run(p, cat, Options{CountOnly: true})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		out[kind] = res.Count
	}
	return out
}

// TestHashJoinMultiColumnKeys: multi-column hashed keys must agree with
// the nested-loop join's pure Equal semantics.
func TestHashJoinMultiColumnKeys(t *testing.T) {
	cat := skelCatalog(t, 42, 300)
	l := skelScan(cat, skelQuery(), "t1")
	r := skelScan(cat, skelQuery(), "t2")
	preds := []sql.JoinPred{
		{Left: sql.ColRef{Table: "t1", Column: "k"}, Right: sql.ColRef{Table: "t2", Column: "k"}},
		{Left: sql.ColRef{Table: "t1", Column: "k2"}, Right: sql.ColRef{Table: "t2", Column: "k2"}},
	}
	counts := runJoinKinds(t, cat, l, r, preds)
	if counts[plan.NestedLoop] == 0 {
		t.Fatal("test data produced an empty join")
	}
	for kind, c := range counts {
		if c != counts[plan.NestedLoop] {
			t.Errorf("%v: %d rows, nested loop %d", kind, c, counts[plan.NestedLoop])
		}
	}
}

// TestHashJoinNullNeverMatches: NULL join keys match nothing, including
// other NULLs, on both build and probe sides.
func TestHashJoinNullNeverMatches(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"ln", "rn"} {
		tab := storage.NewTable(name, rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
		tab.MustAppend(rel.Row{rel.Null})
		tab.MustAppend(rel.Row{rel.Null})
		tab.MustAppend(rel.Row{rel.Int(1)})
		cat.MustAddTable(tab)
	}
	lt, _ := cat.Table("ln")
	rt, _ := cat.Table("rn")
	l := &plan.ScanNode{Alias: "ln", Table: "ln", Access: plan.SeqScan, OutSchema: lt.Schema()}
	r := &plan.ScanNode{Alias: "rn", Table: "rn", Access: plan.SeqScan, OutSchema: rt.Schema()}
	preds := []sql.JoinPred{{
		Left:  sql.ColRef{Table: "ln", Column: "k"},
		Right: sql.ColRef{Table: "rn", Column: "k"},
	}}
	counts := runJoinKinds(t, cat, l, r, preds)
	for kind, c := range counts {
		if c != 1 { // only Int(1) = Int(1)
			t.Errorf("%v: %d rows, want 1 (NULLs must never match)", kind, c)
		}
	}
	// Count-only skeleton path agrees.
	q := &sql.Query{
		Tables:    []sql.TableRef{{Name: "ln", Alias: "ln"}, {Name: "rn", Alias: "rn"}},
		Joins:     preds,
		CountStar: true,
	}
	p := &plan.Plan{
		Root: &plan.JoinNode{
			Kind: plan.HashJoin, Left: l, Right: r, Preds: preds,
			OutSchema: l.Schema().Concat(r.Schema()),
		},
		Query: q,
	}
	counts2, err := countSkeleton(p, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts2[p.Root] != 1 {
		t.Errorf("skeleton: %d rows, want 1", counts2[p.Root])
	}
}

// TestHashJoinCrossKindNumericKeys: an integer key joins a float key
// holding the same number (predicate equality is cross-kind numeric),
// and hashing must agree with that equality.
func TestHashJoinCrossKindNumericKeys(t *testing.T) {
	cat := catalog.New()
	lt := storage.NewTable("lf", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	lt.MustAppend(rel.Row{rel.Int(5)})
	lt.MustAppend(rel.Row{rel.Int(6)})
	rt := storage.NewTable("rf", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindFloat}))
	rt.MustAppend(rel.Row{rel.Float(5.0)}) // matches Int(5)
	rt.MustAppend(rel.Row{rel.Float(5.5)}) // matches nothing
	rt.MustAppend(rel.Row{rel.Float(6.0)}) // matches Int(6)
	cat.MustAddTable(lt)
	cat.MustAddTable(rt)
	l := &plan.ScanNode{Alias: "lf", Table: "lf", Access: plan.SeqScan, OutSchema: lt.Schema()}
	r := &plan.ScanNode{Alias: "rf", Table: "rf", Access: plan.SeqScan, OutSchema: rt.Schema()}
	preds := []sql.JoinPred{{
		Left:  sql.ColRef{Table: "lf", Column: "k"},
		Right: sql.ColRef{Table: "rf", Column: "k"},
	}}
	counts := runJoinKinds(t, cat, l, r, preds)
	for kind, c := range counts {
		if c != 2 {
			t.Errorf("%v: %d rows, want 2 (cross-kind numeric equality)", kind, c)
		}
	}
	q := &sql.Query{
		Tables:    []sql.TableRef{{Name: "lf", Alias: "lf"}, {Name: "rf", Alias: "rf"}},
		Joins:     preds,
		CountStar: true,
	}
	p := &plan.Plan{
		Root: &plan.JoinNode{
			Kind: plan.HashJoin, Left: l, Right: r, Preds: preds,
			OutSchema: l.Schema().Concat(r.Schema()),
		},
		Query: q,
	}
	counts2, err := countSkeleton(p, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts2[p.Root] != 2 {
		t.Errorf("skeleton: %d rows, want 2", counts2[p.Root])
	}
}

// TestHashJoinCollisionFallsBackToEquality: two key groups forced into
// the same 64-bit bucket (as a genuine hash collision would) must still
// be told apart by the bucket-level value-equality check.
func TestHashJoinCollisionFallsBackToEquality(t *testing.T) {
	var ctr Counters
	probe := rel.Row{rel.Int(5)}
	bucket := rel.HashRow(probe, []int{0})
	h := &hashJoinIter{
		left: &sliceIter{rows: []rel.Row{probe}},
		lidx: []int{0}, ridx: []int{0}, ctr: &ctr,
		table: map[uint64][]hashGroup{
			// A colliding group with a *different* key sits first in the
			// bucket; the matching group follows.
			bucket: {
				{key: rel.Row{rel.Int(99)}, rows: []rel.Row{{rel.Int(99), rel.Int(1)}}},
				{key: rel.Row{rel.Int(5)}, rows: []rel.Row{{rel.Int(5), rel.Int(2)}, {rel.Int(5), rel.Int(3)}}},
			},
		},
	}
	var got []rel.Row
	for {
		row, ok := h.next()
		if !ok {
			break
		}
		got = append(got, row)
	}
	if len(got) != 2 {
		t.Fatalf("collision probe returned %d rows, want 2", len(got))
	}
	for _, row := range got {
		if !row[1].Equal(rel.Int(5)) {
			t.Errorf("collision group leaked into matches: %v", row)
		}
	}
}
