package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
)

// TestOptimizerAgainstBruteForceOracle generates random small databases
// and random SPJ queries, evaluates each query by brute force (nested
// loops over the cross product with all predicates applied), and checks
// that the optimizer+executor pipeline returns the same count for every
// configuration (bushy/left-deep, each estimation profile, with and
// without a partially populated Γ).
func TestOptimizerAgainstBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 15; trial++ {
		cat, tables := randomCatalog(t, rng)
		q := randomQuery(t, rng, cat, tables)
		want := bruteForce(t, cat, q)

		configs := []Config{
			DefaultConfig(),
			{BushyTrees: false},
			{Profile: SystemAProfile()},
			{Profile: SystemBProfile()},
		}
		for ci, cfg := range configs {
			opt := New(cat, cfg)
			gammas := []*Gamma{nil}
			// A Γ with arbitrary (even wrong) cardinalities must never
			// change the result, only the plan.
			g := NewGamma(q)
			g.Set(1<<len(q.Tables)-1, float64(rng.Intn(1000)))
			gammas = append(gammas, g)
			for gi, gamma := range gammas {
				p, err := opt.Optimize(q, gamma)
				if err != nil {
					t.Fatalf("trial %d cfg %d: %v\n%s", trial, ci, err, q)
				}
				res, err := executor.Run(p, cat, executor.Options{CountOnly: true})
				if err != nil {
					t.Fatalf("trial %d cfg %d: %v\n%s\n%s", trial, ci, err, q, p.Explain())
				}
				if res.Count != want {
					t.Fatalf("trial %d cfg %d gamma %d: got %d rows, oracle %d\nquery: %s\nplan:\n%s",
						trial, ci, gi, res.Count, want, q, p.Explain())
				}
			}
		}
	}
}

// randomCatalog builds 2-4 tables with 1-3 int columns each (small
// domains force plenty of matches and NULLs). Row counts are bounded so
// the brute-force oracle's cross product stays around 10^5 tuples.
func randomCatalog(t *testing.T, rng *rand.Rand) (*catalog.Catalog, []string) {
	t.Helper()
	cat := catalog.New()
	n := 2 + rng.Intn(3)
	maxRows := []int{0, 0, 60, 40, 18}[n]
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		names = append(names, name)
		ncols := 1 + rng.Intn(3)
		cols := make([]rel.Column, ncols)
		for c := range cols {
			cols[c] = rel.Column{Name: fmt.Sprintf("c%d", c), Kind: rel.KindInt}
		}
		tab := storage.NewTable(name, rel.NewSchema(cols...))
		rows := 10 + rng.Intn(maxRows)
		domain := int64(2 + rng.Intn(10))
		for r := 0; r < rows; r++ {
			row := make(rel.Row, ncols)
			for c := range row {
				if rng.Intn(20) == 0 {
					row[c] = rel.Null
				} else {
					row[c] = rel.Int(rng.Int63n(domain))
				}
			}
			tab.MustAppend(row)
		}
		// Random index on the first column, sometimes.
		if rng.Intn(2) == 0 {
			if _, err := tab.CreateIndex("c0"); err != nil {
				t.Fatal(err)
			}
		}
		cat.MustAddTable(tab)
	}
	if err := cat.AnalyzeAll(stats.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	cat.BuildSamples(rng.Int63())
	return cat, names
}

// randomQuery produces a connected SPJ query over all tables: a chain of
// equi-joins on c0 plus 0-2 random selections.
func randomQuery(t *testing.T, rng *rand.Rand, cat *catalog.Catalog, tables []string) *sql.Query {
	t.Helper()
	text := "SELECT COUNT(*) FROM "
	for i, name := range tables {
		if i > 0 {
			text += ", "
		}
		text += name
	}
	text += " WHERE "
	for i := 1; i < len(tables); i++ {
		if i > 1 {
			text += " AND "
		}
		text += fmt.Sprintf("%s.c0 = %s.c0", tables[i-1], tables[i])
	}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for s := 0; s < rng.Intn(3); s++ {
		tab := tables[rng.Intn(len(tables))]
		text += fmt.Sprintf(" AND %s.c0 %s %d", tab, ops[rng.Intn(len(ops))], rng.Intn(8))
	}
	q, err := sql.Parse(text, cat)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return q
}

// bruteForce evaluates the query by materialized cross product.
func bruteForce(t *testing.T, cat *catalog.Catalog, q *sql.Query) int64 {
	t.Helper()
	// Current tuple assignment: alias -> row.
	type binding struct {
		alias string
		tab   *storage.Table
	}
	var binds []binding
	for _, tr := range q.Tables {
		tab, err := cat.Table(tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		binds = append(binds, binding{alias: tr.Alias, tab: tab})
	}
	var count int64
	cur := make(map[string]rel.Row, len(binds))
	var recurse func(depth int)
	recurse = func(depth int) {
		if depth == len(binds) {
			for _, s := range q.Selections {
				tab, _ := cat.Table(mustName(q, s.Col.Table))
				pos := tab.Schema().MustIndexOf("", s.Col.Column)
				if !sql.EvalSelection(cur[s.Col.Table][pos], s) {
					return
				}
			}
			for _, j := range q.Joins {
				lt, _ := cat.Table(mustName(q, j.Left.Table))
				rt, _ := cat.Table(mustName(q, j.Right.Table))
				lp := lt.Schema().MustIndexOf("", j.Left.Column)
				rp := rt.Schema().MustIndexOf("", j.Right.Column)
				if !cur[j.Left.Table][lp].Equal(cur[j.Right.Table][rp]) {
					return
				}
			}
			count++
			return
		}
		b := binds[depth]
		for _, row := range b.tab.Rows() {
			cur[b.alias] = row
			recurse(depth + 1)
		}
	}
	recurse(0)
	return count
}

func mustName(q *sql.Query, alias string) string {
	tr, ok := q.TableByAlias(alias)
	if !ok {
		panic("unknown alias " + alias)
	}
	return tr.Name
}
