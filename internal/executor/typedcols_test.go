package executor

import (
	"context"
	"fmt"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// Typed boundary columns: the cases where carrying []int64 / []float64 /
// []string / mixed-kind columns between operators could diverge from the
// general executor's rel.Value rows — keys of different kinds, NULLs
// outside the key, a column with no uniform kind, string keys, and
// joins with nothing on one side.

// edgeCatalog builds four tables whose columns cover every ColData
// shape: a.k int and b.k float (even rows hold integers, odd rows
// halves), n int with NULLs, m mixed-kind (int / string / float / NULL
// by row), s string (including the empty string), j int, and v int for
// filters.
func edgeCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	mixed := func(i int) rel.Value {
		switch i % 4 {
		case 0:
			return rel.Int(int64(i % 10))
		case 1:
			return rel.String_(fmt.Sprintf("m%d", i%10))
		case 2:
			return rel.Float(float64(i%10) + 0.5)
		default:
			if i%12 == 3 {
				return rel.Null
			}
			return rel.Float(float64(i % 10)) // equals the Int rows' values
		}
	}
	nullable := func(i, mod int) rel.Value {
		if i%7 == 0 {
			return rel.Null
		}
		return rel.Int(int64(i % mod))
	}
	str := func(i int) rel.Value {
		if i%30 == 0 {
			return rel.String_("")
		}
		return rel.String_(fmt.Sprintf("s%d", i%30))
	}
	cat := catalog.New()
	add := func(name string, rows int, cols []string, row func(i int) rel.Row) {
		cs := make([]rel.Column, len(cols))
		for c, n := range cols {
			cs[c] = rel.Column{Name: n, Kind: rel.KindInt}
		}
		tab := storage.NewTable(name, rel.NewSchema(cs...))
		for i := 0; i < rows; i++ {
			tab.MustAppend(row(i))
		}
		cat.MustAddTable(tab)
	}
	add("a", 700, []string{"k", "n", "m", "s", "v"}, func(i int) rel.Row {
		return rel.Row{rel.Int(int64(i % 40)), nullable(i, 25), mixed(i), str(i), rel.Int(int64(i % 100))}
	})
	add("b", 600, []string{"k", "j", "s", "v"}, func(i int) rel.Row {
		k := float64(i % 40)
		if i%2 == 1 {
			k += 0.5
		}
		return rel.Row{rel.Float(k), rel.Int(int64(i % 35)), str(i + 1), rel.Int(int64(i % 100))}
	})
	add("c", 560, []string{"j", "m", "v"}, func(i int) rel.Row {
		return rel.Row{rel.Int(int64(i % 35)), mixed(i + 2), rel.Int(int64(i % 100))}
	})
	add("d", 520, []string{"n", "v"}, func(i int) rel.Row {
		return rel.Row{nullable(i+3, 25), rel.Int(int64(i % 100))}
	})
	return cat
}

func ref(table, col string) sql.ColRef { return sql.ColRef{Table: table, Column: col} }

// edgeCase is one query shape: its join predicates, the filter bound
// (`v < bound` on every table the bounds map names; the two instances of
// a case differ only there), and the left-deep join order to plan.
type edgeCase struct {
	name   string
	order  []string
	joins  []sql.JoinPred
	bounds func(limit int64) map[string]int64
	// wantRoot constrains the root count of the looser instance: "some"
	// (the case must exercise real matches) or "none" (an empty side).
	wantRoot string
}

func edgeCases() []edgeCase {
	vLimit := func(tables ...string) func(int64) map[string]int64 {
		return func(limit int64) map[string]int64 {
			m := map[string]int64{}
			for _, t := range tables {
				m[t] = limit
			}
			return m
		}
	}
	return []edgeCase{
		{name: "int key = float key", order: []string{"a", "b"},
			joins:  []sql.JoinPred{{Left: ref("a", "k"), Right: ref("b", "k")}},
			bounds: vLimit("a", "b"), wantRoot: "some"},
		{name: "float key probes int build side", order: []string{"b", "a"},
			joins:  []sql.JoinPred{{Left: ref("a", "k"), Right: ref("b", "k")}},
			bounds: vLimit("a"), wantRoot: "some"},
		{name: "NULL in a non-key column carried through two joins", order: []string{"a", "b", "c", "d"},
			joins: []sql.JoinPred{
				{Left: ref("a", "k"), Right: ref("b", "k")},
				{Left: ref("b", "j"), Right: ref("c", "j")},
				{Left: ref("a", "n"), Right: ref("d", "n")},
			},
			bounds: vLimit("a", "c", "d"), wantRoot: "some"},
		{name: "mixed-kind column carried through a join, then a key", order: []string{"a", "b", "c"},
			joins: []sql.JoinPred{
				{Left: ref("a", "k"), Right: ref("b", "k")},
				{Left: ref("a", "m"), Right: ref("c", "m")},
			},
			bounds: vLimit("a", "c"), wantRoot: "some"},
		{name: "string key", order: []string{"a", "b", "c"},
			joins: []sql.JoinPred{
				{Left: ref("a", "s"), Right: ref("b", "s")},
				{Left: ref("b", "j"), Right: ref("c", "j")},
			},
			bounds: vLimit("a", "b"), wantRoot: "some"},
		{name: "empty build side", order: []string{"a", "b", "c"},
			joins: []sql.JoinPred{
				{Left: ref("a", "k"), Right: ref("b", "k")},
				{Left: ref("b", "j"), Right: ref("c", "j")},
			},
			bounds: func(limit int64) map[string]int64 {
				return map[string]int64{"a": limit, "b": limit - 1000}
			}, wantRoot: "none"},
		{name: "empty probe side", order: []string{"a", "b", "c"},
			joins: []sql.JoinPred{
				{Left: ref("a", "k"), Right: ref("b", "k")},
				{Left: ref("b", "j"), Right: ref("c", "j")},
			},
			bounds: func(limit int64) map[string]int64 {
				return map[string]int64{"a": limit - 1000, "b": limit}
			}, wantRoot: "none"},
	}
}

// plan builds the case's left-deep hash-join plan at one filter bound.
func (ec edgeCase) plan(cat *catalog.Catalog, limit int64) *plan.Plan {
	q := &sql.Query{Joins: ec.joins, CountStar: true}
	bounds := ec.bounds(limit)
	for _, name := range ec.order {
		q.Tables = append(q.Tables, sql.TableRef{Name: name, Alias: name})
		if b, ok := bounds[name]; ok {
			q.Selections = append(q.Selections,
				sql.Selection{Col: ref(name, "v"), Op: sql.OpLt, Value: rel.Int(b)})
		}
	}
	var root plan.Node = skelScan(cat, q, ec.order[0])
	for _, name := range ec.order[1:] {
		root = skelJoin(q, root, skelScan(cat, q, name))
	}
	return &plan.Plan{Root: root, Query: q}
}

// TestTypedColumnEdgeCases: on every edge case the skeleton engine —
// through its single-plan and batch entry points — must report the
// general executor's per-node counts on a cold and a warm cache. Each
// case runs as two instances differing only in a filter bound (a loose
// and a tight one).
func TestTypedColumnEdgeCases(t *testing.T) {
	cat := edgeCatalog(t)
	ctx := context.Background()
	if a, err := cat.Table("a"); err != nil {
		t.Fatal(err)
	} else if cs := a.ColData(); cs.Col(2).Vals == nil || cs.Col(1).Nulls == nil {
		t.Fatal("a.m must be a mixed-kind (Vals) column and a.n must carry NULLs")
	}
	for _, ec := range edgeCases() {
		plans := []*plan.Plan{ec.plan(cat, 70), ec.plan(cat, 35)}
		want := make([]map[plan.Node]int64, len(plans))
		for pi, p := range plans {
			res, err := Run(p, cat, Options{CountOnly: true})
			if err != nil {
				t.Fatalf("%s: volcano: %v", ec.name, err)
			}
			want[pi] = res.NodeRows
		}
		switch root := want[0][plans[0].Root]; {
		case ec.wantRoot == "some" && root == 0:
			t.Fatalf("%s: test data produced an empty join", ec.name)
		case ec.wantRoot == "none" && root != 0:
			t.Fatalf("%s: join expected empty, volcano counts %d", ec.name, root)
		}
		check := func(label string, pi int, got map[plan.Node]int64) {
			t.Helper()
			plan.Walk(plans[pi].Root, func(n plan.Node) {
				if got[n] != want[pi][n] {
					t.Errorf("%s [%s] instance %d node %v: skeleton %d, volcano %d",
						ec.name, label, pi, n.Aliases(), got[n], want[pi][n])
				}
			})
		}
		single, batch := NewSkeletonCache(0, 0), NewSkeletonCache(0, 0)
		for _, label := range []string{"cold", "warm"} {
			for pi, p := range plans {
				got, err := countSkeletonCfg(ctx, p, cat.Table, single, 0)
				if err != nil {
					t.Fatalf("%s [%s single]: %v", ec.name, label, err)
				}
				check(label+" single", pi, got)
			}
			got, err := countBatch(ctx, plans, cat.Table, batch, 0)
			if err != nil {
				t.Fatalf("%s [%s batch]: %v", ec.name, label, err)
			}
			for pi := range plans {
				check(label+" batch", pi, got[pi])
			}
		}
	}
}

// TestProbeAllocsIndependentOfMatchCount: a join probe records row-id
// pairs in scratch, groups them in scratch and then sizes each output
// column once, so what it allocates is a function of the number of
// output columns, not of how many rows matched: 10^3 and 10^5 matches
// cost the same few allocations. (Appending cells to growing output
// vectors, the layout this replaced, cost a reallocation per doubling per
// column.)
func TestProbeAllocsIndependentOfMatchCount(t *testing.T) {
	intCol := func(n int, val func(i int) int64) storage.ColData {
		c := storage.ColData{Kind: rel.KindInt, Ints: make([]int64, n)}
		for i := range c.Ints {
			c.Ints[i] = val(i)
		}
		return c
	}
	probeAllocs := func(matchesPerRow int) (allocs float64, matches int64) {
		const leftRows = 1000
		l := &subResult{count: leftRows, cols: []storage.ColData{
			intCol(leftRows, func(int) int64 { return 7 }),
			intCol(leftRows, func(i int) int64 { return int64(i) }),
		}}
		r := &subResult{count: matchesPerRow, cols: []storage.ColData{
			intCol(matchesPerRow, func(int) int64 { return 7 }),
		}}
		j := joinProbe{l: l, r: r, lkey: []int{0}, rkey: []int{0},
			table:  buildHashTable(r, []int{0}),
			gather: []gatherSrc{{left: true, idx: 1}, {left: false, idx: 0}}}
		sc := new(skelScratch)
		allocs = testing.AllocsPerRun(5, func() {
			matches = j.result(sc, j.probe(&sc.pairs)).total
		})
		return allocs, matches
	}
	small, nSmall := probeAllocs(1)
	large, nLarge := probeAllocs(100)
	if nSmall != 1000 || nLarge != 100_000 {
		t.Fatalf("match counts %d / %d, want 1000 / 100000", nSmall, nLarge)
	}
	if large > small+2 {
		t.Errorf("probe allocations grow with the match count: %.0f at 10^3 matches, %.0f at 10^5", small, large)
	}
	if small > 5 {
		t.Errorf("a two-column probe costs %.0f allocations, want the sub-result, its column slice, one typed slice per column and the weights", small)
	}
}
