package sql_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
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

// TestGraphOutsideAlias pins what the graph's two readers do with a join
// predicate naming an alias the FROM list lacks: the planner refuses the
// query, and the validation engine applies the predicate in no set —
// counts and signatures are those of the query without it — while its
// endpoint on a FROM entry stays a boundary column of every set that
// holds the entry.
func TestGraphOutsideAlias(t *testing.T) {
	cat := graphCatalog(t)
	base, err := sql.Parse(`SELECT COUNT(*) FROM r1 AS t1, r2 AS t2 WHERE t1.a = 1 AND t1.b = t2.b`, cat)
	if err != nil {
		t.Fatal(err)
	}
	outside := *base
	outside.Joins = append(slices.Clone(base.Joins), sql.JoinPred{Left: sql.ColRef{Table: "t1", Column: "a"}, Right: sql.ColRef{Table: "zz", Column: "a"}})

	opt := optimizer.New(cat, optimizer.DefaultConfig())
	if _, err := opt.Prepare(sql.NewGraph(&outside), nil); err == nil || !strings.Contains(err.Error(), "unknown alias") {
		t.Fatalf("Prepare with an outside alias: %v, want an unknown-alias error", err)
	}

	p, err := opt.Optimize(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := func(q *sql.Query) ([]executor.Step, []string) {
		cache := executor.NewSkeletonCache(0, 0)
		steps, err := executor.NewPrepared(sql.NewGraph(q), cache, 0, nil).Count(context.Background(), p.Root, cat.Table, executor.SkelConfig{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return steps, cache.Keys()
	}
	want, wantKeys := count(base)
	got, gotKeys := count(&outside)
	if len(got) != len(want) {
		t.Fatalf("%d steps, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Set.Key != want[i].Set.Key || got[i].Count != want[i].Count {
			t.Errorf("step %d: %s = %d, want %s = %d", i, got[i].Set.Key, got[i].Count, want[i].Set.Key, want[i].Count)
		}
	}
	slices.Sort(wantKeys)
	slices.Sort(gotKeys)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("keys %q, want as many as %q", gotKeys, wantKeys)
	}
	for i, k := range gotKeys {
		// A key is signature|B:boundary columns. The signatures agree;
		// sets holding t1 gain t1.a as a boundary column.
		sig, bound, _ := strings.Cut(k, "|B:")
		wsig, wbound, _ := strings.Cut(wantKeys[i], "|B:")
		holdsT1 := strings.Contains(sig, "T:t1=")
		if sig != wsig || strings.Contains(k, "zz") || holdsT1 != strings.Contains(bound, "t1.a,") || strings.ReplaceAll(bound, "t1.a,", "") != wbound {
			t.Errorf("key %q, want %q with t1.a as a boundary column of sets holding t1", k, wantKeys[i])
		}
	}
	if len(p.JoinSets()) != 1 || p.JoinSets()[0] != 0b11 || plan.CanonicalSet(p.Root.Aliases()) != want[len(want)-1].Set.Key {
		t.Errorf("plan join sets %v, root set %q", p.JoinSets(), want[len(want)-1].Set.Key)
	}
}
