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
// []string columns between operators could diverge from the general
// executor's rel.Value rows — keys of different kinds, NULLs outside the
// key, string keys, and joins with nothing on one side.

// edgeCatalog builds four tables whose columns cover every ColData
// kind: a.k int and b.k float (even rows hold integers, odd rows
// halves), n int with NULLs, s string (including the empty string), j
// int, and v int for filters.
func edgeCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
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
	integer := func(name string) rel.Column { return rel.Column{Name: name, Kind: rel.KindInt} }
	add := func(name string, rows int, cols []rel.Column, row func(i int) rel.Row) {
		tab := storage.NewTable(name, rel.NewSchema(cols...))
		for i := 0; i < rows; i++ {
			tab.MustAppend(row(i))
		}
		cat.MustAddTable(tab)
	}
	strCol := rel.Column{Name: "s", Kind: rel.KindString}
	add("a", 700, []rel.Column{integer("k"), integer("n"), strCol, integer("v")}, func(i int) rel.Row {
		return rel.Row{rel.Int(int64(i % 40)), nullable(i, 25), str(i), rel.Int(int64(i % 100))}
	})
	add("b", 600, []rel.Column{{Name: "k", Kind: rel.KindFloat}, integer("j"), strCol, integer("v")}, func(i int) rel.Row {
		k := float64(i % 40)
		if i%2 == 1 {
			k += 0.5
		}
		return rel.Row{rel.Float(k), rel.Int(int64(i % 35)), str(i + 1), rel.Int(int64(i % 100))}
	})
	add("c", 560, []rel.Column{integer("j"), integer("v")}, func(i int) rel.Row {
		return rel.Row{rel.Int(int64(i % 35)), rel.Int(int64(i % 100))}
	})
	add("d", 520, []rel.Column{integer("n"), integer("v")}, func(i int) rel.Row {
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
	} else if a.ColData().Col(1).Nulls == nil {
		t.Fatal("a.n must carry NULLs")
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
