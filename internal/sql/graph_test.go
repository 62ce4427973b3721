package sql_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// graphCatalog holds three two-column tables r1..r3 of a few rows each.
func graphCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"r1", "r2", "r3"} {
		tbl := storage.NewTable(name, rel.NewSchema(rel.Column{Name: "a", Kind: rel.KindInt}, rel.Column{Name: "b", Kind: rel.KindInt}))
		for i := range 8 {
			tbl.MustAppend(rel.Row{rel.Int(int64(i % 2)), rel.Int(int64(i % 4))})
		}
		cat.MustAddTable(tbl)
	}
	return cat
}

// TestGraph: a FROM order that is not alias order, predicates written
// right to left, a duplicated predicate and one naming an alias outside
// the FROM list. Bits follow FROM positions, filters stay with their
// position in query order, and edges keep query order, each with its
// written and canonical forms and the bits of its canonical endpoints.
func TestGraph(t *testing.T) {
	q, err := sql.Parse(`SELECT COUNT(*) FROM r3 AS t3, r1 AS t1, r2 AS t2
		WHERE t1.a = 1 AND t3.a = 0 AND t1.b > 2 AND t2.b = t1.b AND t3.b = t2.b`, graphCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range q.Joins { // the parser writes them canonically
		q.Joins[i] = sql.JoinPred{Left: j.Right, Right: j.Left}
	}
	q.Joins = append(q.Joins, q.Joins[0], sql.JoinPred{Left: sql.ColRef{Table: "t1", Column: "a"}, Right: sql.ColRef{Table: "zz", Column: "a"}})
	g := sql.NewGraph(q)

	if g.Query != q || len(g.Rels) != 3 {
		t.Fatalf("graph of %d relations for %d tables", len(g.Rels), len(q.Tables))
	}
	wantFilters := [][]string{{"t3.a = 0"}, {"t1.a = 1", "t1.b > 2"}, nil}
	for i, r := range g.Rels {
		var got []string
		for _, f := range r.Filters {
			got = append(got, f.String())
		}
		if r.Bit != 1<<uint(i) || r.Bit != q.Bit(q.Tables[i].Alias) || !slices.Equal(got, wantFilters[i]) {
			t.Errorf("position %d (%s): bit %#x, filters %q; want %#x, %q", i, q.Tables[i].Alias, r.Bit, got, 1<<uint(i), wantFilters[i])
		}
	}
	if q.Bit("zz") != 0 {
		t.Errorf("Bit(zz) = %#x, want 0", q.Bit("zz"))
	}

	want := []struct {
		pred, key string
		l, r      uint64
	}{
		{"t1.b = t2.b", "t1.b = t2.b", 0b010, 0b100},
		{"t2.b = t3.b", "t2.b = t3.b", 0b100, 0b001},
		{"t1.b = t2.b", "t1.b = t2.b", 0b010, 0b100},
		{"t1.a = zz.a", "t1.a = zz.a", 0b010, 0},
	}
	if len(g.Edges) != len(want) {
		t.Fatalf("%d edges, want %d", len(g.Edges), len(want))
	}
	for i, e := range g.Edges {
		w := want[i]
		if i < 3 && e.Pred == e.Canon {
			t.Errorf("edge %d: written %s is its canonical form; the test wants it reversed", i, e.Pred)
		}
		if e.Pred.Canonical() != e.Canon || e.Canon.String() != w.pred || e.Key != w.key || e.L != w.l || e.R != w.r {
			t.Errorf("edge %d: %s as %s (%q), bits %#x %#x; want %s, bits %#x %#x", i, e.Pred, e.Canon, e.Key, e.L, e.R, w.pred, w.l, w.r)
		}
	}
	if e := &g.Edges[1]; !e.Crosses(0b001, 0b100) || !e.Crosses(0b100, 0b011) || e.Crosses(0b010, 0b100) {
		t.Errorf("%s: Crosses disagrees with its bits %#x %#x", e.Key, e.L, e.R)
	}
}

// TestGraphOutsideAlias pins the one rejection of a join predicate
// whose endpoints are not two distinct FROM entries — one naming an alias
// the FROM list lacks, or both naming the same entry: the graph names the
// predicate in its Err, and the planner and the validation handle both
// refuse the query with that error, while the query without it plans and
// validates. No plan node could apply such a predicate: it crosses no
// split and is not a filter.
func TestGraphOutsideAlias(t *testing.T) {
	cat := graphCatalog(t)
	base, err := sql.Parse(`SELECT COUNT(*) FROM r1 AS t1, r2 AS t2 WHERE t1.a = 1 AND t1.b = t2.b`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat, optimizer.DefaultConfig())
	g := sql.NewGraph(base)
	if g.Err != nil {
		t.Fatalf("graph of %s: %v", base, g.Err)
	}
	if _, err := opt.Prepare(g, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := executor.NewPrepared(g, nil, 0, nil, nil, 0); err != nil {
		t.Fatal(err)
	}

	for name, pred := range map[string]sql.JoinPred{
		"outside alias": {Left: sql.ColRef{Table: "t1", Column: "a"}, Right: sql.ColRef{Table: "zz", Column: "a"}},
		"same alias":    {Left: sql.ColRef{Table: "t1", Column: "a"}, Right: sql.ColRef{Table: "t1", Column: "b"}},
	} {
		q := *base
		q.Joins = append(slices.Clone(base.Joins), pred)
		g := sql.NewGraph(&q)
		if !errors.Is(g.Err, sql.ErrJoinEndpoints) || !strings.Contains(g.Err.Error(), pred.String()) {
			t.Fatalf("%s: graph error %v, want ErrJoinEndpoints naming %s", name, g.Err, pred)
		}
		if _, err := opt.Prepare(g, nil); !errors.Is(err, g.Err) {
			t.Errorf("%s: Optimizer.Prepare: %v, want the graph's error", name, err)
		}
		if _, err := opt.Optimize(&q, nil); !errors.Is(err, sql.ErrJoinEndpoints) {
			t.Errorf("%s: Optimize: %v, want ErrJoinEndpoints", name, err)
		}
		if _, err := executor.NewPrepared(g, nil, 0, nil, nil, 0); !errors.Is(err, g.Err) || !errors.Is(err, executor.ErrUnsupportedPlan) {
			t.Errorf("%s: NewPrepared: %v, want the graph's error, as an unsupported plan", name, err)
		}
	}
}
